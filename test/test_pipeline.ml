open Chaoschain_core
open Chaoschain_pki
open Chaoschain_measurement
module Prng = Chaoschain_crypto.Prng

(* --- shard plan: split/merge round-trip, coverage, determinism --- *)

let shard_round_trip () =
  List.iter
    (fun n ->
      let rng = Prng.of_label (Printf.sprintf "test-shard-%d" n) in
      let arr = Array.init n (fun _ -> Prng.int rng 1_000_000) in
      let shards = Shard.split arr in
      Alcotest.(check int)
        (Printf.sprintf "count for n=%d" n)
        (Shard.count n) (Array.length shards);
      Alcotest.(check (array int))
        (Printf.sprintf "round-trip n=%d" n)
        arr (Shard.merge shards))
    [ 0; 1; 5; 511; 512; 513; 2048 + 17 ]

let shard_plan_contiguous () =
  List.iter
    (fun n ->
      let slices = Shard.plan n in
      let expected_start = ref 0 in
      Array.iteri
        (fun i s ->
          Alcotest.(check int) "index" i s.Shard.index;
          Alcotest.(check int) "contiguous" !expected_start s.Shard.start;
          Alcotest.(check bool) "non-empty" true (s.Shard.stop > s.Shard.start);
          expected_start := s.Shard.stop)
        slices;
      Alcotest.(check int) "covers n" n !expected_start)
    [ 1; 100; 512; 1000; 4096 ]

let shard_plan_ignores_jobs () =
  (* The plan is a function of the length alone — the determinism contract
     hangs on this, because per-shard PRNG labels come from slice indices. *)
  let labels n = Array.map (fun s -> Shard.label ~base:"x" s.Shard.index) (Shard.plan n) in
  Alcotest.(check (array string)) "stable labels" (labels 1813) (labels 1813)

(* --- pipeline map: parallel == sequential == Array.map --- *)

let pipeline_map_matches () =
  let arr = Array.init 1500 (fun i -> i) in
  let f x = (x * 7919) mod 104729 in
  let expected = Array.map f arr in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map jobs=%d" jobs)
        expected
        (Pipeline.map ~jobs f arr))
    [ 1; 2; 4 ];
  Alcotest.(check (array int)) "mapi indexes globally"
    (Array.mapi (fun i x -> i + x) arr)
    (Pipeline.mapi ~jobs:3 (fun i x -> i + x) arr)

let memo_dedups () =
  let memo = Pipeline.Memo.create () in
  let computed = ref 0 in
  let get k =
    Pipeline.Memo.find_or_add memo k (fun () ->
        incr computed;
        String.length k)
  in
  Alcotest.(check int) "first" 3 (get "abc");
  Alcotest.(check int) "hit" 3 (get "abc");
  Alcotest.(check int) "other key" 2 (get "xy");
  Alcotest.(check int) "computed once per key" 2 !computed;
  Alcotest.(check int) "size" 2 (Pipeline.Memo.size memo);
  Alcotest.(check int) "hits" 1 (Pipeline.Memo.hits memo)

(* --- the determinism contract over the full analysis --- *)

let render_report rep = Format.asprintf "%a" Compliance.pp_report rep

let analysis_jobs_invariant () =
  let pop = Population.generate ~scale:0.002 () in
  let a1 = Experiments.analyze ~jobs:1 pop in
  let a4 = Experiments.analyze ~jobs:4 pop in
  (* Dataset: identical scan, per shard-derived PRNG streams. *)
  List.iter2
    (fun (v1 : Scanner.vantage) v4 ->
      Alcotest.(check int) (v1.Scanner.name ^ " reached") v1.Scanner.reached
        v4.Scanner.reached)
    a1.Experiments.view.Experiments.v_dataset.Scanner.vantages
    a4.Experiments.view.Experiments.v_dataset.Scanner.vantages;
  Alcotest.(check (array string)) "chain fingerprints"
    a1.Experiments.view.Experiments.v_dataset.Scanner.chain_fps
    a4.Experiments.view.Experiments.v_dataset.Scanner.chain_fps;
  Alcotest.(check int) "unique chains"
    a1.Experiments.view.Experiments.v_dataset.Scanner.unique_chains
    a4.Experiments.view.Experiments.v_dataset.Scanner.unique_chains;
  (* Reports: same domains in the same order with the same verdicts. *)
  Alcotest.(check int) "report count" (Array.length a1.Experiments.reports)
    (Array.length a4.Experiments.reports);
  Array.iter2
    (fun (r1, rep1) (r4, rep4) ->
      Alcotest.(check string) "domain order" r1.Population.domain r4.Population.domain;
      Alcotest.(check string) "report" (render_report rep1) (render_report rep4))
    a1.Experiments.reports a4.Experiments.reports;
  (* And the rendered experiments — the actual deliverable — byte for byte. *)
  List.iter2
    (fun r1 r4 ->
      Alcotest.(check string)
        ("body of " ^ r1.Experiments.id)
        (Chaoschain_report.Report.to_text r1)
        (Chaoschain_report.Report.to_text r4))
    (Experiments.run_all a1) (Experiments.run_all a4)

(* --- dedup cache vs direct evaluation, chain by chain --- *)

let memo_matches_direct () =
  let pop = Population.generate ~scale:0.002 () in
  let store = Universe.union_store pop.Population.universe in
  let aia = Universe.aia pop.Population.universe in
  let memo = Pipeline.Memo.create () in
  Array.iter
    (fun r ->
      let direct =
        Compliance.analyze ~store ~aia ~domain:r.Population.domain r.Population.chain
      in
      let cached =
        Pipeline.Memo.find_or_add memo (Scanner.chain_fingerprint r.Population.chain)
          (fun () -> Compliance.analyze_chain ~store ~aia r.Population.chain)
        |> Compliance.localize ~domain:r.Population.domain r.Population.chain
      in
      Alcotest.(check string)
        (r.Population.domain ^ " report")
        (render_report direct) (render_report cached);
      Alcotest.(check bool)
        (r.Population.domain ^ " verdict")
        (Compliance.compliant direct) (Compliance.compliant cached))
    pop.Population.domains;
  let unique =
    Array.to_list pop.Population.domains
    |> List.map (fun r -> Scanner.chain_fingerprint r.Population.chain)
    |> List.sort_uniq String.compare |> List.length
  in
  Alcotest.(check int) "memo covers every unique chain" unique
    (Pipeline.Memo.size memo)

(* --- difftest memo key: the hostname bit separates match from mismatch --- *)

let difftest_key_host_bit () =
  let pop = Population.generate ~scale:0.002 () in
  (* Pick a domain whose served leaf actually covers it; mismatch scenarios
     would put the same "x" bit in both keys. *)
  let r =
    Array.to_list pop.Population.domains
    |> List.find (fun r ->
           match r.Population.chain with
           | leaf :: _ ->
               Chaoschain_x509.Cert.matches_hostname leaf r.Population.domain
           | [] -> false)
  in
  let k_match = Difftest.chain_key ~domain:r.Population.domain r.Population.chain in
  let k_same = Difftest.chain_key ~domain:r.Population.domain r.Population.chain in
  let k_other = Difftest.chain_key ~domain:"definitely-not-served.sim" r.Population.chain in
  Alcotest.(check string) "stable" k_match k_same;
  Alcotest.(check bool) "host bit differs" true (k_match <> k_other)

let suite =
  [ Alcotest.test_case "shard round-trip" `Quick shard_round_trip;
    Alcotest.test_case "shard plan contiguous" `Quick shard_plan_contiguous;
    Alcotest.test_case "shard labels stable" `Quick shard_plan_ignores_jobs;
    Alcotest.test_case "pipeline map matches Array.map" `Quick pipeline_map_matches;
    Alcotest.test_case "memo dedups" `Quick memo_dedups;
    Alcotest.test_case "analysis jobs-invariant" `Slow analysis_jobs_invariant;
    Alcotest.test_case "memo matches direct evaluation" `Slow memo_matches_direct;
    Alcotest.test_case "difftest key host bit" `Slow difftest_key_host_bit ]
