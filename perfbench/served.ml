(* Driving the real chaind from outside: spawn `chaoscheck serve --listen`,
   time its set-up, probe its stats op, and offer open-loop load through
   Loadgen.run with a cheap reply classifier and generator-health
   bookkeeping. *)

module Loadgen = Chaoschain_net.Loadgen
module Poller = Chaoschain_net.Poller
module Netd = Chaoschain_service.Netd
module Json = Chaoschain_report.Json

let exe = Filename.concat "_build" (Filename.concat "default" "bin/chaoscheck.exe")
let now () = Trace.now_ns () /. 1e9

(* --- /proc --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* CPU time of every thread of [pid], ns (schedstat's first field). *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> (
          match String.split_on_char ' ' (String.trim s) with
          | v :: _ -> acc +. float_of_string v
          | [] -> acc)
      | exception Sys_error _ -> acc)
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

let status_kb pid field =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ k; v ] when k = field ->
             Scanf.sscanf (String.trim v) "%d" (fun x -> Some x)
         | _ -> None)
  |> Option.value ~default:0

(* Processors: run.sh passes the count it saw before pinning this process
   to processor 0 (see there). *)
let cpus =
  match Option.bind (Sys.getenv_opt "PERFBENCH_CPUS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> Domain.recommended_domain_count ()

(* [argv] prefixed so that it runs on the given processors, when taskset(1)
   is there and the machine has more than one. *)
let pinned cpu_list argv =
  if cpus >= 2 && Sys.file_exists "/usr/bin/taskset" then
    "/usr/bin/taskset" :: "-c" :: cpu_list :: argv
  else argv

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- the server process --- *)

type server = { pid : int; addr : Netd.addr; mutable alive : bool }

let live : server list ref = ref []

let stop s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    live := List.filter (fun x -> x != s) !live
  end

let () = at_exit (fun () -> List.iter stop !live)

let read_line_timeout fd ~timeout =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = now () +. timeout in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Some (Buffer.sub buf 0 i)
    | None ->
        let left = deadline -. now () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n -> Buffer.add_subbytes buf chunk 0 n; go ())
  in
  go ()

(* One blocking stats round trip on a fresh connection; a stats frame is a
   batch barrier, so its reply reflects every request admitted before it. *)
let stats s =
  let fd = Netd.dial s.addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "{\"op\":\"stats\"}\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      match read_line_timeout fd ~timeout:30.0 with
      | None -> failwith "stats probe: no reply"
      | Some line -> (
          match Json.of_string line with
          | Error e -> failwith ("stats probe: " ^ e)
          | Ok j -> (
              match Json.member "stats" j with
              | Some st -> st
              | None -> failwith "stats probe: no stats member")))

let int_at j path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  |> (fun j -> Option.bind j Json.get_int)
  |> Option.value ~default:(-1)

let float_at j path =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> Float.of_int i
  | _ -> nan

(* Spawn chaind and time it from the spawn to the reply of its first stats
   probe: lab generation, engine creation, listening and one accept. *)
let spawn ~sock ~err ~extra =
  let addr = Netd.Unix_path sock in
  (try Sys.remove sock with Sys_error _ -> ());
  let errfd = Unix.openfile err [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let args =
    [ exe; "serve"; "--scale"; Printf.sprintf "%g" Lab.scale; "--jobs"; "1";
      "--shards"; "1"; "--poller"; "epoll"; "--listen"; "unix:" ^ sock ]
    @ extra
  in
  (* the server gets processor 1 to itself; the generator runs on 0 *)
  let args = Array.of_list (pinned "1" args) in
  let t0 = now () in
  let pid = Unix.create_process args.(0) args devnull devnull errfd in
  Unix.close errfd;
  Unix.close devnull;
  let s = { pid; addr; alive = true } in
  live := s :: !live;
  let rec wait_ready () =
    (match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        s.alive <- false;
        failwith ("chaind exited during set-up; see " ^ err));
    if now () -. t0 > 120.0 then failwith "chaind set-up timed out";
    match stats s with
    | _ -> ()
    | exception (Unix.Unix_error _ | Failure _) ->
        Unix.sleepf 0.002;
        wait_ready ()
  in
  wait_ready ();
  (s, now () -. t0)

(* --- idle spinners --- *)

(* One busy loop per processor at SCHED_IDLE priority: it runs only when
   nothing else wants that processor, and yields to any wake-up at once.
   On a virtual machine this keeps the virtual processors from halting
   between requests, so a reply does not wait for the hypervisor to
   resume an idle processor — a wake-up cost real hardware does not
   have. Needs chrt(1); without it the run goes ahead without spinners. *)
let spinners : int list ref = ref []

let start_spinners n =
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pids =
    List.init n (fun i ->
        let argv =
          Array.of_list
            (pinned (string_of_int i)
               [ "chrt"; "--idle"; "0"; "sh"; "-c"; "while :; do :; done" ])
        in
        Unix.create_process argv.(0) argv devnull devnull devnull)
  in
  Unix.close devnull;
  Unix.sleepf 0.05;
  let alive =
    List.filter (fun pid -> fst (Unix.waitpid [ WNOHANG ] pid) = 0) pids
  in
  spinners := alive;
  List.length alive

let stop_spinners () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !spinners;
  spinners := []

let () = at_exit stop_spinners

(* --- load steps --- *)

(* A reply line starts {"id":"…","ok":true or {"ok":…; only the head is
   inspected, so classifying a ~5 KB verdict costs no JSON parse. *)
let is_error line =
  let n = min (String.length line) 96 in
  let pat = "\"ok\":true" in
  let lp = String.length pat in
  let rec matches i j = j = lp || (line.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec find i = i + lp <= n && (matches i 0 || find (i + 1)) in
  not (find 0)

type step = {
  rate : float;
  requests : int;
  received : int;
  errors : int;
  dropped : int;
  lat_ms : float array;
      (* per reply, in arrival order: from the moment the generator took
         the request for sending to the reply's arrival *)
  late_ms : float array;  (* frame pull time minus schedule, per request *)
  wall_s : float;
  gen_cpu_s : float;
  srv_cpu_s : float;
}

let grace = 2.0

(* Offer [requests] requests at [rate]: request [k] is [frame (base + k)].
   [capture] sees (k, reply) for every reply. *)
let run_step s ~rate ~requests ~base ~frame ~capture =
  let t0 = ref nan in
  let clock () =
    let t = now () in
    if Float.is_nan !t0 then t0 := t;
    t
  in
  let late = Array.make requests 0.0 in
  let frame k =
    late.(k) <- (now () -. (!t0 +. (Float.of_int k /. rate))) *. 1000.0;
    frame (base + k)
  in
  (* Loadgen times each request from its schedule; replies are captured in
     the order their latencies are recorded, so the generator's own
     lateness can be taken back out of each one *)
  let seq_of_reply = Array.make requests 0 and replies = ref 0 in
  let capture k reply =
    seq_of_reply.(!replies) <- k;
    incr replies;
    capture k reply
  in
  let config =
    { Loadgen.dial = (fun () -> Netd.dial s.addr); conns = 2; rate; requests;
      max_frame = 1 lsl 20; is_error; now = clock; grace;
      capture = Some capture; ramp = 0.0; backend = Poller.Select }
  in
  let g0 = self_cpu_s () and c0 = cpu_ns s.pid in
  let st = Loadgen.run config ~frame in
  let g1 = self_cpu_s () and c1 = cpu_ns s.pid in
  { rate; requests; received = st.Loadgen.received; errors = st.Loadgen.errors;
    dropped = st.Loadgen.dropped;
    lat_ms =
      Array.mapi (fun i l -> l -. late.(seq_of_reply.(i))) st.Loadgen.latencies_ms;
    late_ms = late; wall_s = st.Loadgen.elapsed_s;
    gen_cpu_s = g1 -. g0; srv_cpu_s = (c1 -. c0) /. 1e9 }

let p99 a = Arith.quantile a 0.99

(* The generator is the bottleneck when it runs behind its own schedule
   for most requests (median lateness past a millisecond) or out of
   processor. Its p99 lateness is reported but not used here: on a shared
   virtual machine it mostly measures wake-up hiccups, which delay the
   server's replies just as much. *)
let late_limit_ms = 1.0
let gen_busy_limit = 0.9

let generator_bound st =
  Arith.median st.late_ms > late_limit_ms
  || st.gen_cpu_s /. st.wall_s > gen_busy_limit

(* Backlog growth: the median latency over the last tenth of the replies
   already exceeds the limit. *)
let backlog_grew ~limit st =
  let n = Array.length st.lat_ms in
  let k = max 1 (n / 10) in
  n = 0 || Arith.median (Array.sub st.lat_ms (n - k) k) > limit

let verdict ~limit st =
  let q =
    if Array.length st.lat_ms = 0 then infinity
    else Arith.windowed_quantile ~max_windows:4 st.lat_ms 0.99
  in
  if generator_bound st then Arith.Unscored
  else if
    st.errors = 0 && st.dropped = 0 && st.received = st.requests
    && q <= limit && not (backlog_grew ~limit st)
  then Arith.Pass q
  else Arith.Fail q
