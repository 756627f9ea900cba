(* The benchmark's own arithmetic on synthetic inputs. *)

open Perfbench

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)
let check_close ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" msg a b) true (close ?eps a b)

(* --- order statistics --- *)

let test_quantiles () =
  let a = Array.init 100 (fun i -> Float.of_int (100 - i)) in
  check_close "median" (Arith.median a) 50.5;
  check_close "p99 nearest rank" (Arith.quantile a 0.99) 99.0;
  check_close "p50 nearest rank" (Arith.quantile a 0.5) 50.0

(* --- ">= 10 samples beyond the percentile" --- *)

let test_tail_rule () =
  Alcotest.(check int) "p99 needs 1000" 1000 (Arith.min_samples_for 0.99);
  Alcotest.(check int) "p999 needs 10000" 10000 (Arith.min_samples_for 0.999);
  Alcotest.(check int) "p50 needs 20" 20 (Arith.min_samples_for 0.5);
  Alcotest.(check bool) "999 samples: no p99" false (Arith.tail_ok ~n:999 0.99);
  Alcotest.(check bool) "1000 samples: p99" true (Arith.tail_ok ~n:1000 0.99);
  (* windows shrink to keep ten samples beyond p99 in each *)
  let stall = Array.init 3000 (fun i -> if i < 1000 then 50.0 else 1.0) in
  check_close "one stalled window of three moves nothing" 1.0
    (Arith.windowed_quantile ~max_windows:5 stall 0.99)

(* --- span self time --- *)

let test_self_time () =
  check_close "no children" (Arith.self_time ~start:0.0 ~stop:10.0 []) 10.0;
  check_close "two children"
    (Arith.self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (5.0, 6.0) ])
    7.0;
  check_close "overlap counted once"
    (Arith.self_time ~start:0.0 ~stop:10.0 [ (1.0, 4.0); (3.0, 5.0) ])
    6.0;
  check_close "clipped to the parent"
    (Arith.self_time ~start:2.0 ~stop:10.0 [ (0.0, 4.0); (9.0, 12.0) ])
    5.0;
  (* the recorder applies the same rule to real nested spans *)
  let t = Trace.create () in
  Trace.span t "outer" (fun () ->
      Trace.span t "inner" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  match Trace.layers t with
  | [ ("outer", o); ("inner", i) ] ->
      check_close ~eps:1e-6 "self = duration - child" o.Trace.self_ns
        (o.Trace.incl_ns -. i.Trace.incl_ns);
      check_close ~eps:1e-6 "spans cover outer" (Trace.total_self_ns t)
        o.Trace.incl_ns
  | l -> Alcotest.failf "unexpected layers (%d)" (List.length l)

(* --- anatomy residual --- *)

let test_residual () =
  check_close "exact" (Arith.residual ~total:100.0 ~parts:[ 60.0; 40.0 ]) 0.0;
  check_close "unexplained share" (Arith.residual ~total:100.0 ~parts:[ 50.0; 40.0 ]) 0.1;
  check_close "overcounted" (Arith.residual ~total:100.0 ~parts:[ 80.0; 40.0 ]) (-0.2);
  Alcotest.(check bool) "empty total" true
    (Float.is_nan (Arith.residual ~total:0.0 ~parts:[ 1.0 ]))

(* --- capacity search on a synthetic latency curve --- *)

(* M/M/1-like: p99 = base / (1 - rate/cap); the limit is met up to
   cap * (1 - base/limit). *)
let curve ~base ~cap rate =
  if rate >= cap then Arith.Fail infinity
  else
    let q = base /. (1.0 -. (rate /. cap)) in
    if q <= 10.0 then Arith.Pass q else Arith.Fail q

let test_capacity () =
  let truth = 6000.0 *. (1.0 -. (1.0 /. 10.0)) in
  let capacity, probes =
    Arith.search ~lo:2000.0 ~hi:16000.0 ~steps:6 ~limit:10.0
      (curve ~base:1.0 ~cap:6000.0)
  in
  Alcotest.(check int) "fixed number of steps" 6 (List.length probes);
  Alcotest.(check bool)
    (Printf.sprintf "capacity %.0f within 3%% of %.0f" capacity truth)
    true
    (Float.abs (capacity -. truth) /. truth < 0.03);
  (* each probe is the geometric midpoint of the bracket the verdicts so
     far leave *)
  let _ =
    List.fold_left
      (fun (lo, hi) s ->
        check_close "geometric midpoint" s.Arith.rate (Float.sqrt (lo *. hi));
        match s.Arith.verdict with
        | Arith.Pass _ -> (s.Arith.rate, hi)
        | _ -> (lo, s.Arith.rate))
      (2000.0, 16000.0) probes
  in
  (* an unscored probe counts as not passing, never as a pass *)
  let capacity', _ =
    Arith.search ~lo:2000.0 ~hi:16000.0 ~steps:6 ~limit:10.0 (fun r ->
        if r > 4000.0 then Arith.Unscored else curve ~base:1.0 ~cap:6000.0 r)
  in
  Alcotest.(check bool) "unscored caps the search" true (capacity' <= 4000.0);
  let floor, _ =
    Arith.search ~lo:2000.0 ~hi:16000.0 ~steps:4 ~limit:10.0 (fun _ ->
        Arith.Fail 99.0)
  in
  check_close "nothing passes -> lo" floor 2000.0

let test_histogram () =
  let b = [ (1.0, 10); (2.0, 10); (5.0, 0); (infinity, 0) ] in
  check_close "median at the bucket edge" (Arith.histogram_quantile b 0.5) 1.0;
  check_close "interpolated" (Arith.histogram_quantile b 0.75) 1.5;
  Alcotest.(check bool) "empty" true
    (Float.is_nan (Arith.histogram_quantile [ (1.0, 0) ] 0.5))

let () =
  Alcotest.run "perfbench"
    [ ( "arith",
        [ Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "tail sample rule" `Quick test_tail_rule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "anatomy residual" `Quick test_residual;
          Alcotest.test_case "capacity search" `Quick test_capacity;
          Alcotest.test_case "histogram quantile" `Quick test_histogram ] ) ]
