(* The repository benchmark. One run: one workload, one seed, one traced or
   untraced pass; the last line of stdout is the result object.

     main.exe --workload serve-hot|serve-cold|corpus --seed N --seconds S
              --trace 0|1

   Every workload spawns the real `chaoscheck serve --listen unix:…` and
   loads it open-loop through Chaoschain_net.Loadgen.run; `corpus` first
   runs the scan -> persist -> replay cycle (in child processes) and
   warm-starts the server from the corpus it wrote. --trace 1 adds the in-process per-layer
   anatomy and prints the per-layer metrics instead of the end-to-end
   ones. README.md has the rationale and the layer -> metric map. *)

open Perfbench
module Engine = Chaoschain_service.Engine
module Json = Chaoschain_report.Json
module Population = Chaoschain_measurement.Population
module Pipeline = Chaoschain_measurement.Pipeline

let run_dir = ".perfbench-run"
(* The p99 limit for capacity. It sits above the tail the server's own GC
   pauses give at moderate load (p99.9 near 10 ms at 60% of capacity on
   the 2-vCPU VM the benchmark was built on), so a step fails when
   queueing, not a single pause, sets the tail. *)
let latency_limit_ms = 25.0
let capacity_steps = 6
let hot_working_set = 900
let anatomy_cold_frames = 600
(* Set-up samples, split between the start and the end of a run so that
   their median spans the whole run, not only its first seconds (the
   processor speed of a shared VM wanders over seconds): server spawns on
   serve-*, batch-cycle passes on corpus, whose store must exist before
   its server warm-starts from it. *)
let spawns_before, spawns_after = (3, 4)
let passes_before, passes_after = (3, 2)

(* The anatomy reconciles when the layers' self times account for the
   engine's own per-request time to within this share. *)
let residual_tolerance = 0.3

(* A corpus pass normally takes a few seconds. A pass that gives no result
   by then is counted as a failed operation and run again once. *)
let cycle_timeout_s = 45.0

type plan = {
  lo : float;  (* capacity search bounds, req/s *)
  hi : float;
  fixed_rate : float;  (* p50/p99 are measured here: ~50% of capacity *)
}

(* The first bisection step, at sqrt (lo * hi), lies well above the
   capacity measured on the 2-vCPU VM, so no early coin flip at the knee
   decides the whole search. *)
let hot_plan = { lo = 3000.0; hi = 60000.0; fixed_rate = 4000.0 }
let cold_plan = { lo = 625.0; hi = 4000.0; fixed_rate = 600.0 }

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- metric output --- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> log "metric %s is not finite" x.name) bad;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name
          (json_number (if Float.is_finite x.value then x.value else 0.0))
          x.unit)
      metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (correct && bad = []) attempted failed (String.concat "," fields)

(* --- environment record --- *)

let source_id () =
  let head = Filename.concat ".git" "HEAD" in
  match String.trim (Served.read_file head) with
  | s when String.length s > 5 && String.sub s 0 5 = "ref: " ->
      let r = String.sub s 5 (String.length s - 5) in
      (try "git " ^ String.trim (Served.read_file (Filename.concat ".git" r))
       with Sys_error _ -> "git " ^ r)
  | s -> "git " ^ s
  | exception Sys_error _ ->
      (* not a git checkout: digest the sources the binaries are built from *)
      let rec walk dir =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then walk p
               else if List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c" ]
                       || f = "dune"
               then [ p ]
               else [])
      in
      let files = walk "lib" @ walk "bin" in
      "tree-md5 "
      ^ Digest.to_hex
          (Digest.string
             (String.concat "" (List.map (fun p -> p ^ Digest.file p) files)))

let print_env ~workload ~seed ~seconds ~trace ~spinners =
  let s v = Json.String v and i v = Json.Int v in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ( "env",
              Json.Obj
                [ ("workload", s workload); ("seed", i seed);
                  ("seconds", i seconds); ("trace", i trace);
                  ("nproc", i Served.cpus);
                  ("ocaml", s Sys.ocaml_version); ("server_poller", s "epoll");
                  ("server_jobs", i 1); ("server_shards", i 1);
                  ("lab_scale", Json.Float Lab.scale);
                  ("corpus_jobs", i Served.cpus);
                  ( "pinning",
                    s (if Served.pinned "1" [] = [] then "none"
                       else "generator on processor 0, chaind on 1") );
                  ("idle_spinners", i spinners);
                  ( "generator",
                    s "one process, Loadgen.run, 2 connections, select poller" );
                  ( "transport",
                    s "Unix-domain socket on this host: no network link was \
                       crossed" );
                  ("source", s (source_id ())) ] ) ]))

(* --- one served session --- *)

type session = {
  setup_s : float;
  capacity : float;
  p50 : float;
  p95 : float;
  p99 : float;
  rss_mb : float;
  attempted : int;
  failed : int;
  problems : string list;
  cap_step : Served.step option;  (* the highest passing step *)
  unscored : int;
  over_limit_drops : int;
  final_stats : Json.t;
  timed_hits : int;
  timed_checks : int;
  samples : (string * string) list;  (* (frame, reply) *)
}

(* Sampled replies against an in-process engine over the same lab. *)
let check_samples reference samples =
  let memo = Hashtbl.create 256 in
  let mismatches =
    List.fold_left
      (fun acc (f, reply) ->
        let expect =
          match Hashtbl.find_opt memo f with
          | Some r -> r
          | None ->
              let r = Engine.handle_frame reference f in
              Hashtbl.add memo f r;
              r
        in
        if String.equal expect reply then acc else acc + 1)
      0 samples
  in
  log "checked %d sampled replies against the reference engine: %d differ"
    (List.length samples) mismatches;
  if samples = [] then [ "no replies sampled" ]
  else if mismatches > 0 then [ Printf.sprintf "%d sampled replies differ" mismatches ]
  else []

let quiesce server ~expected ~probes =
  let deadline = Served.now () +. 60.0 in
  let rec go () =
    let seen =
      match Served.stats server with
      | st ->
          incr probes;
          Some st
      | exception (Unix.Unix_error _ | Failure _) when Served.now () < deadline ->
          None
    in
    match seen with
    | Some st when Served.int_at st [ "requests" ] >= expected () -> st
    | _ when Served.now () > deadline ->
        failwith (Printf.sprintf "server never caught up with %d requests" (expected ()))
    | _ -> Unix.sleepf 0.02; go ()
  in
  go ()

let served_session ~seconds ~plan ~(traffic : Lab.traffic) ~extra
    ~spawns_before ~spawns_after =
  let sock = Filename.concat run_dir "chaind.sock" in
  let err = Filename.concat run_dir "chaind.err" in
  let set_up k =
    let s, dt = Served.spawn ~sock ~err ~extra in
    log "set-up %d: %.3fs" k dt;
    (s, dt)
  in
  (* set up [spawns_before] times and keep the last server *)
  let setups, server =
    let rec go k acc =
      let s, dt = set_up k in
      if k < spawns_before then (Served.stop s; go (k + 1) (dt :: acc))
      else (dt :: acc, s)
    in
    go 1 []
  in
  let base_requests = Served.int_at (Served.stats server) [ "requests" ] in
  let probes = ref 0 in
  let sent = ref 0 in
  let expected () = base_requests + !sent + !probes in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* a seeded sample of replies, checked against the in-process engine *)
  let samples = ref [] in
  let cursor = ref 0 in
  let capture_at base k reply =
    let g = base + k in
    if (g * 2654435761) land 1023 < 8 then samples := (g, reply) :: !samples
  in
  let failed = ref 0 and over_limit_drops = ref 0 in
  let step ~rate ~requests ~frame =
    let base = !cursor in
    let st =
      Served.run_step server ~rate ~requests ~base ~frame ~capture:(capture_at base)
    in
    cursor := base + requests;
    sent := !sent + requests;
    failed := !failed + st.Served.errors;
    ignore (quiesce server ~expected ~probes);
    st
  in
  (* warm-up: every working-set chain once, before timing *)
  if Array.length traffic.Lab.warm > 0 then begin
    let st =
      step ~rate:1200.0 ~requests:(Array.length traffic.Lab.warm)
        ~frame:(fun g -> traffic.Lab.warm.(g))
    in
    failed := !failed + st.Served.dropped
  end;
  (* warm frames are not part of the traffic order: restart the order *)
  let warm_sent = !cursor in
  let frame g = Lab.frame_of traffic (g - warm_sent) in
  let before = Served.stats server in
  incr probes;
  (* capacity: a bisection of [capacity_steps] fixed-length steps *)
  let step_s =
    0.4 *. Float.of_int seconds /. Float.of_int capacity_steps
  in
  let steps = ref [] in
  let probe rate =
    let requests = Float.to_int (Float.round (rate *. step_s)) in
    let st = step ~rate ~requests ~frame in
    let v = Served.verdict ~limit:latency_limit_ms st in
    (match v with
    | Arith.Pass _ -> ()
    | _ -> over_limit_drops := !over_limit_drops + st.Served.dropped);
    steps := (st, v) :: !steps;
    log "step %.0f req/s: p99 %.2fms late-p99 %.2fms gen %.0f%% srv %.0f%% \
         drops %d -> %s"
      rate
      (match v with Arith.Pass q | Arith.Fail q -> q | Arith.Unscored -> nan)
      (Served.p99 st.Served.late_ms)
      (100.0 *. st.Served.gen_cpu_s /. st.Served.wall_s)
      (100.0 *. st.Served.srv_cpu_s /. st.Served.wall_s)
      st.Served.dropped
      (match v with
      | Arith.Pass _ -> "pass"
      | Arith.Fail _ -> "fail"
      | Arith.Unscored -> "unscored");
    v
  in
  let capacity, _ =
    Arith.search ~lo:plan.lo ~hi:plan.hi ~steps:capacity_steps
      ~limit:latency_limit_ms probe
  in
  let cap_step =
    List.fold_left
      (fun best (st, v) ->
        match (v, best) with
        | Arith.Pass _, Some b when b.Served.rate >= st.Served.rate -> best
        | Arith.Pass _, _ -> Some st
        | _ -> best)
      None !steps
  in
  if cap_step = None then problem "no capacity step passed";
  let unscored =
    List.length (List.filter (fun (_, v) -> v = Arith.Unscored) !steps)
  in
  (* latency at the fixed rate *)
  let fixed_s = 0.6 *. Float.of_int seconds in
  let requests = Float.to_int (Float.round (plan.fixed_rate *. fixed_s)) in
  let st = step ~rate:plan.fixed_rate ~requests ~frame in
  failed := !failed + st.Served.dropped;
  let lat = st.Served.lat_ms in
  if not (Arith.tail_ok ~n:(Array.length lat) 0.99) then
    problem "fixed-rate run holds %d samples, too few for p99" (Array.length lat);
  if Served.generator_bound st then
    log "warning: the generator, not the server, bounded the fixed-rate run";
  let p95 = Arith.quantile lat 0.95 and p99 = Arith.quantile lat 0.99 in
  let p50 = Arith.median lat in
  log "fixed %.0f req/s: p50 %.3fms p95 %.3fms p99 %.3fms, late-p99 %.2fms"
    plan.fixed_rate p50 p95 p99 (Served.p99 st.Served.late_ms);
  (* the server's own counters must reconcile with what was sent *)
  let final = quiesce server ~expected ~probes in
  let geti path = Served.int_at final path in
  let drops_total =
    List.fold_left (fun acc (st, _) -> acc + st.Served.dropped) st.Served.dropped !steps
  in
  let requests_seen = geti [ "requests" ] in
  if drops_total = 0 && requests_seen <> expected () then
    problem "stats: %d requests, sent %d + probes" requests_seen (expected ());
  if geti [ "hits" ] + geti [ "misses" ] <> geti [ "checks" ] then
    problem "stats: hits + misses <> checks";
  if drops_total = 0 && geti [ "checks" ] <> !sent then
    problem "stats: %d checks, sent %d" (geti [ "checks" ]) !sent;
  if geti [ "rejects" ] <> 0 then problem "stats: %d rejects" (geti [ "rejects" ]);
  if geti [ "errors" ] <> 0 then problem "stats: %d errors" (geti [ "errors" ]);
  let rss_mb = Float.of_int (Served.status_kb server.Served.pid "VmHWM") /. 1024.0 in
  Served.stop server;
  let setups =
    setups
    @ List.init spawns_after (fun k ->
          let s, dt = set_up (spawns_before + k + 1) in
          Served.stop s;
          dt)
  in
  let samples =
    List.map
      (fun (g, reply) ->
        ((if g < warm_sent then traffic.Lab.warm.(g) else frame g), reply))
      !samples
  in
  { samples; setup_s = Arith.median (Array.of_list setups); capacity; p50; p95; p99; rss_mb;
    attempted = !sent; failed = !failed; problems = !problems; cap_step;
    unscored; over_limit_drops = !over_limit_drops; final_stats = final;
    timed_hits = geti [ "hits" ] - Served.int_at before [ "hits" ];
    timed_checks = geti [ "checks" ] - Served.int_at before [ "checks" ] }

(* --- per-layer output --- *)

let span_metrics (name, (l : Trace.layer)) =
  let c = Float.of_int (max 1 l.Trace.calls) in
  [ m (name ^ "_us") "us" (l.Trace.incl_ns /. c /. 1000.0);
    m (name ^ ".minor_words") "words" (l.Trace.incl_words /. c) ]

let layer_metrics (s : session) (a : Anatomy.result) (cycle : Cycle.pass list) =
  let spans = List.concat_map span_metrics (Anatomy.every_layer a) in
  let st = s.final_stats in
  let getf path = Served.float_at st path in
  let ratio a b = if b = 0 then 0.0 else Float.of_int a /. Float.of_int b in
  (* server and generator at the highest passing capacity step *)
  let srv_us, srv_busy, late_p99, gen_us =
    match s.cap_step with
    | None -> (0.0, 0.0, 0.0, 0.0)
    | Some c ->
        let n = Float.of_int c.Served.requests in
        ( c.Served.srv_cpu_s /. n *. 1e6,
          c.Served.srv_cpu_s /. c.Served.wall_s,
          Served.p99 c.Served.late_ms,
          c.Served.gen_cpu_s /. n *. 1e6 )
  in
  let buckets =
    match Json.member "latency_ms" st with
    | Some l -> (
        match Option.bind (Json.member "buckets" l) Json.get_list with
        | Some bs ->
            List.filter_map
              (fun b ->
                let le =
                  match Json.member "le" b with
                  | Some (Json.Float f) -> Some f
                  | Some (Json.Int i) -> Some (Float.of_int i)
                  | Some (Json.String "inf") -> Some infinity
                  | _ -> None
                in
                match (le, Option.bind (Json.member "count" b) Json.get_int) with
                | Some le, Some c -> Some (le, c)
                | _ -> None)
              bs
        | None -> [])
    | None -> []
  in
  let cyc f = match cycle with [] -> 0.0 | _ -> Arith.median (Array.of_list (List.map f cycle)) in
  let rate num den = cyc (fun p -> Float.of_int (num p) /. den p) in
  [ m "chaind.setup_s" "s" s.setup_s;
    m "netd.server_cpu_us_per_req" "us" srv_us;
    m "netd.server_busy_frac" "ratio" srv_busy;
    m "loadgen.late_p99_ms" "ms" late_p99;
    m "loadgen.cpu_us_per_req" "us" gen_us;
    m "latency.p95_ms" "ms" s.p95;
    m "latency.p99_ms" "ms" s.p99;
    m "loadgen.unscored_steps" "count" (Float.of_int s.unscored);
    m "loadgen.over_limit_drops" "count" (Float.of_int s.over_limit_drops) ]
  @ spans
  @ [ m "engine.handle_frame_hit_us" "us" a.Anatomy.hit_us;
      m "engine.handle_frame_miss_us" "us" a.Anatomy.miss_us;
      m "anatomy.hit_residual_frac" "ratio" a.Anatomy.hit_residual;
      m "anatomy.miss_residual_frac" "ratio" a.Anatomy.miss_residual;
      m "anatomy.hit_path_build_calls" "count"
        (Float.of_int a.Anatomy.hit_path_build_calls);
      m "trace.overhead_frac" "ratio" a.Anatomy.overhead_frac;
      m "engine.hit_ratio" "ratio" (ratio s.timed_hits s.timed_checks);
      m "engine.evictions" "count" (getf [ "cache"; "evictions" ]);
      m "engine.compute_p50_ms" "ms" (Arith.histogram_quantile buckets 0.5);
      m "intern.reuse_ratio" "ratio"
        (ratio
           (Served.int_at st [ "intern"; "reused" ])
           (Served.int_at st [ "intern"; "lookups" ]));
      m "population.generate_s" "s" (cyc (fun p -> p.Cycle.generate_s));
      m "experiments.analyze_s" "s" (cyc (fun p -> p.Cycle.analyze_s));
      m "experiments.render_s" "s" (cyc (fun p -> p.Cycle.render_s));
      m "store.save_s" "s" (cyc (fun p -> p.Cycle.save_s));
      m "store.bytes_written" "bytes" (cyc (fun p -> Float.of_int p.Cycle.bytes_written));
      m "store.load_s" "s" (cyc (fun p -> p.Cycle.load_s));
      m "corpus.analyze_s" "s" (cyc (fun p -> p.Cycle.replay_analyze_s));
      m "gc.major_collections" "count"
        (Float.of_int a.Anatomy.major_collections
        +. cyc (fun p -> Float.of_int p.Cycle.major_collections));
      m "netd.server_store_records" "count"
        (Float.of_int (max 0 (Served.int_at st [ "store"; "records" ])));
      m "scan_domains_per_s" "1/s"
        (rate (fun p -> p.Cycle.domains) (fun p -> p.Cycle.analyze_s +. p.Cycle.render_s));
      m "persist_records_per_s" "1/s"
        (rate (fun p -> p.Cycle.records) (fun p -> p.Cycle.save_s));
      m "replay_domains_per_s" "1/s"
        (rate (fun p -> p.Cycle.domains) (fun p ->
             p.Cycle.load_s +. p.Cycle.replay_analyze_s +. p.Cycle.replay_render_s)) ]

(* --- workloads --- *)

let run ~workload ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let store_dir = Filename.concat run_dir "corpus" in
  let hung = ref 0 in
  let pass k =
    let attempt () =
      (* the pass gets every processor back *)
      Cycle.run_child ~timeout:cycle_timeout_s
        ~argv:
          (Array.of_list
             (Served.pinned
                (Printf.sprintf "0-%d" (Served.cpus - 1))
                [ Sys.executable_name; "--cycle-pass"; store_dir ]))
    in
    let p =
      match attempt () with
      | Some p -> p
      | None -> (
          incr hung;
          log "corpus pass %d: no result within %.0fs; counted as failed, \
               running it again" k cycle_timeout_s;
          match attempt () with
          | Some p -> p
          | None -> failwith "corpus pass failed twice")
    in
    log "corpus pass %d: %d domains in %.2fs: generate %.2fs analyze %.2fs \
         render %.2fs save %.2fs load %.2fs replay %.2fs+%.2fs"
      k p.Cycle.domains p.Cycle.total_s p.Cycle.generate_s p.Cycle.analyze_s
      p.Cycle.render_s p.Cycle.save_s p.Cycle.load_s
      p.Cycle.replay_analyze_s p.Cycle.replay_render_s;
    p
  in
  (* corpus runs the batch cycle several times (the Merkle root must
     repeat; set-up is the median pass); a traced run of the other
     workloads runs it once, so every traced run measures every layer *)
  let before, after =
    if workload = "corpus" then (passes_before, passes_after)
    else if trace = 1 then (1, 0)
    else (0, 0)
  in
  let cycle_before = List.init before (fun k -> pass (k + 1)) in
  let extra = if workload = "corpus" then [ "--warm-store"; store_dir ] else [] in
  (* The frames are built from a lab population that is dropped before
     the load starts, so the generator runs with a small heap; the lab is
     generated again afterwards for the reference engine. *)
  let plan, traffic =
    let all = Lab.pairs_of_pop (Population.generate ~scale:Lab.scale ()) in
    match workload with
    | "serve-hot" ->
        ( hot_plan,
          Lab.hot ~rng ~prefix:"h" ~sources:Lab.sources
            (Lab.sample ~rng hot_working_set all) )
    | "serve-cold" -> (cold_plan, Lab.cold ~rng all)
    | _ ->
        (* re-queries of scanned domains the server warm-started from the
           corpus: Engine.warm fills the LRU with the first
           cache-capacity records, so the sample is drawn from those *)
        let records =
          match Chaoschain_measurement.Corpus.load ~jobs:1 store_dir with
          | Ok l -> l.Chaoschain_measurement.Corpus.l_dataset.Chaoschain_measurement.Scanner.domains
          | Error e -> failwith ("corpus load: " ^ e)
        in
        let warmed = Array.sub records 0 (min 1024 (Array.length records)) in
        let t =
          Lab.hot ~rng ~prefix:"r" ~sources:Lab.sources
            (Lab.sample ~rng hot_working_set warmed)
        in
        (hot_plan, { t with Lab.warm = [||] })
  in
  Gc.compact ();
  (* set-up: the median server spawn; for corpus, the median pass of the
     batch cycle that builds the store the server warm-starts from (its
     one spawn is reported per layer) *)
  let s =
    if workload = "corpus" then
      served_session ~seconds ~plan ~traffic ~extra ~spawns_before:1 ~spawns_after:0
    else served_session ~seconds ~plan ~traffic ~extra ~spawns_before ~spawns_after
  in
  let cycle = cycle_before @ List.init after (fun k -> pass (before + k + 1)) in
  let cycle_problems =
    List.concat_map
      (fun p ->
        (if p.Cycle.identical then [] else [ "replayed tables differ from the scan's" ])
        @ if p.Cycle.root_verified then [] else [ "loaded Merkle root differs" ])
      cycle
    @
    match cycle with
    | p :: rest when List.exists (fun q -> q.Cycle.root <> p.Cycle.root) rest ->
        [ "Merkle root differs between passes" ]
    | _ -> []
  in
  let setup_s =
    if workload = "corpus" then
      Arith.median (Array.of_list (List.map (fun p -> p.Cycle.total_s) cycle))
    else s.setup_s
  in
  (* every corpus pass is an operation too; one without a result failed *)
  let attempted = s.attempted + List.length cycle and failed = s.failed + !hung in
  let env = Lab.env_of (Population.generate ~scale:Lab.scale ()) in
  let reference = Engine.create ~env () in
  let problems = s.problems @ cycle_problems @ check_samples reference s.samples in
  Engine.shutdown reference;
  List.iter (fun p -> log "INCORRECT: %s" p) problems;
  if trace = 0 then
    print_result ~correct:(problems = []) ~attempted ~failed
      [ m "setup_s" "s" setup_s; m "capacity_rps" "1/s" s.capacity;
        m "p50_ms" "ms" s.p50; m "peak_rss_mb" "MB" s.rss_mb ]
  else begin
    let fill, hits =
      match workload with
      | "serve-cold" ->
          let fr = Lab.sample ~rng anatomy_cold_frames traffic.Lab.frames in
          (fr, fr)
      | _ ->
          let m = Array.length Lab.sources in
          ( Array.init (Array.length traffic.Lab.frames / m) (fun i ->
                traffic.Lab.frames.(i * m)),
            traffic.Lab.frames )
    in
    let passes = max 1 (4000 / Array.length hits) in
    let a = Anatomy.run ~env ~fill ~hits ~passes in
    log "anatomy: hit %.1fus (residual %.3f), miss %.1fus (residual %.3f), \
         tracing overhead %.3f, %d mirror mismatches"
      a.Anatomy.hit_us a.Anatomy.hit_residual a.Anatomy.miss_us
      a.Anatomy.miss_residual a.Anatomy.overhead_frac a.Anatomy.mismatches;
    let problems =
      List.filter_map
        (fun (what, r) ->
          if Float.abs r <= residual_tolerance then None
          else
            Some
              (Printf.sprintf "anatomy %s residual %.3f outside +-%.2f" what r
                 residual_tolerance))
        [ ("hit", a.Anatomy.hit_residual); ("miss", a.Anatomy.miss_residual) ]
      @ problems
    in
    let problems =
      if a.Anatomy.mismatches > 0 then
        Printf.sprintf "anatomy replies differ from the engine's (%d)" a.Anatomy.mismatches
        :: problems
      else problems
    in
    print_result ~correct:(problems = []) ~attempted ~failed
      (layer_metrics s a cycle)
  end

let cycle_pass dir =
  let p = Cycle.run ~jobs:(Pipeline.default_jobs ()) ~scale:Lab.scale ~dir in
  print_endline (Cycle.to_line p);
  exit 0

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref 0 in
  Arg.parse
    [ ("--cycle-pass", Arg.String cycle_pass, "DIR  (internal) one corpus pass");
      ("--workload", Arg.Set_string workload, "serve-hot | serve-cold | corpus");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds per run (>= 5)");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "serve-hot"; "serve-cold"; "corpus" ]) then (
    prerr_endline "--workload must be serve-hot, serve-cold or corpus";
    exit 2);
  if !seed < 0 || !seconds < 5 || (!trace <> 0 && !trace <> 1) then (
    prerr_endline "need --seed >= 0, --seconds >= 5 and --trace 0|1";
    exit 2);
  if not (Sys.file_exists Served.exe) then (
    prerr_endline ("missing " ^ Served.exe ^ "; run through run.sh");
    exit 2);
  (* a peer that closes early must surface as EPIPE, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Cycle.remove run_dir;
  Sys.mkdir run_dir 0o755;
  let spinners = Served.start_spinners Served.cpus in
  print_env ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
    ~spinners;
  let code =
    match run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace with
    | () -> 0
    | exception e ->
        log "benchmark failed: %s" (Printexc.to_string e);
        1
  in
  List.iter Served.stop !Served.live;
  Served.stop_spinners ();
  Cycle.remove run_dir;
  exit code
