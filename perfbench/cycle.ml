(* The paper's batch path, in-process: generate the population, scan and
   classify it, render the scan tables, persist the corpus, load it back,
   re-classify and render again. Each pass starts with an empty intern
   table, so every pass decodes the same certificates from scratch. *)

module Population = Chaoschain_measurement.Population
module Experiments = Chaoschain_measurement.Experiments
module Corpus = Chaoschain_measurement.Corpus
module Report = Chaoschain_report.Report
module Intern = Chaoschain_pki.Intern

type pass = {
  domains : int;
  records : int;
  generate_s : float;
  analyze_s : float;
  render_s : float;
  save_s : float;
  bytes_written : int;
  load_s : float;
  replay_analyze_s : float;
  replay_render_s : float;
  root : string;
  identical : bool;  (* replayed tables byte-identical to the scan's *)
  root_verified : bool;  (* the loaded store proves the root save wrote *)
  major_collections : int;
  total_s : float;  (* wall time from generate to the replayed tables *)
}

let time f =
  let t0 = Trace.now_ns () in
  let v = f () in
  (v, (Trace.now_ns () -. t0) /. 1e9)

let render results = String.concat "" (List.map Report.to_text results)

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

let run ~jobs ~scale ~dir =
  Intern.clear ();
  remove dir;
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Trace.now_ns () in
  let pop, generate_s = time (fun () -> Population.generate ~scale ()) in
  let analysis, analyze_s = time (fun () -> Experiments.analyze ~jobs pop) in
  let scan_text, render_s =
    time (fun () -> render (Experiments.scan_results (Experiments.view analysis)))
  in
  let summary, save_s = time (fun () -> Corpus.save ~dir analysis) in
  let loaded, load_s =
    time (fun () ->
        match Corpus.load ~jobs dir with
        | Ok l -> l
        | Error e -> failwith ("corpus load: " ^ e))
  in
  let view, replay_analyze_s = time (fun () -> Corpus.analyze ~jobs loaded) in
  let replay_text, replay_render_s =
    time (fun () -> render (Experiments.scan_results view))
  in
  let total_s = (Trace.now_ns () -. t0) /. 1e9 in
  { domains = Population.size pop;
    records = summary.Corpus.s_records;
    generate_s; analyze_s; render_s; save_s;
    bytes_written = dir_bytes dir;
    load_s; replay_analyze_s; replay_render_s;
    root = summary.Corpus.s_root_hex;
    identical = String.equal scan_text replay_text;
    root_verified = String.equal summary.Corpus.s_root_hex loaded.Corpus.l_root_hex;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
    total_s }

(* --- one pass in a child process --- *)

(* A pass runs on a Domain pool; it is run in a child process under a
   deadline, so a pass that stops making progress is killed instead of
   stalling the benchmark (the caller counts it as failed). The child prints the pass as one
   line ([to_line]); floats travel in hex, exactly. *)

let to_line p =
  Printf.sprintf
    "%d %d %h %h %h %h %d %h %h %h %s %B %B %d %h"
    p.domains p.records p.generate_s p.analyze_s p.render_s p.save_s
    p.bytes_written p.load_s p.replay_analyze_s p.replay_render_s p.root
    p.identical p.root_verified p.major_collections p.total_s

let of_line line =
  Scanf.sscanf line "%d %d %h %h %h %h %d %h %h %h %s %B %B %d %h"
    (fun domains records generate_s analyze_s render_s save_s bytes_written
         load_s replay_analyze_s replay_render_s root identical root_verified
         major_collections total_s ->
      { domains; records; generate_s; analyze_s; render_s; save_s;
        bytes_written; load_s; replay_analyze_s; replay_render_s; root;
        identical; root_verified; major_collections; total_s })

let run_child ~argv ~timeout =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Trace.now_ns () /. 1e9 +. timeout in
  let rec read () =
    let left = deadline -. (Trace.now_ns () /. 1e9) in
    if left <= 0.0 then false
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n -> Buffer.add_subbytes buf chunk 0 n; read ())
  in
  let finished = read () in
  Unix.close r;
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  match (Unix.waitpid [] pid, finished) with
  | (_, Unix.WEXITED 0), true -> Some (of_line (String.trim (Buffer.contents buf)))
  | _ -> None
