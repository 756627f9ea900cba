let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let quantile a q =
  if Array.length a = 0 then nan else Chaoschain_net.Loadgen.quantile a q

let min_samples_for p = Float.to_int (Float.ceil ((10.0 /. (1.0 -. p)) -. 1e-9))
let tail_ok ~n p = n >= min_samples_for p

let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, start) clipped
  in
  stop -. start -. covered

let residual ~total ~parts =
  if total <= 0.0 then nan
  else (total -. List.fold_left ( +. ) 0.0 parts) /. total

type verdict = Pass of float | Fail of float | Unscored
type step = { rate : float; verdict : verdict }

let search ~lo ~hi ~steps ~limit probe =
  let rec go lo hi k acc =
    if k = 0 then List.rev acc
    else
      let rate = Float.sqrt (lo *. hi) in
      let verdict = probe rate in
      let acc = { rate; verdict } :: acc in
      match verdict with
      | Pass _ -> go rate hi (k - 1) acc
      | Fail _ | Unscored -> go lo rate (k - 1) acc
  in
  let probes = go lo hi steps [] in
  let best =
    List.fold_left
      (fun best s ->
        match (s.verdict, best) with
        | Pass _, Some (r, _) when s.rate <= r -> best
        | Pass q, _ -> Some (s.rate, q)
        | _ -> best)
      None probes
  in
  let capacity =
    match best with
    | None -> lo
    | Some (r_pass, q_pass) -> (
        let above =
          List.filter_map
            (fun s ->
              match s.verdict with
              | Fail q when s.rate > r_pass && Float.is_finite q ->
                  Some (s.rate, q)
              | _ -> None)
            probes
        in
        match List.sort compare above with
        | (r_fail, q_fail) :: _ when q_fail > limit && q_pass > 0.0 ->
            (* latency climbs roughly exponentially towards the knee, so
               interpolate log p99 linearly in the rate *)
            r_pass
            +. (r_fail -. r_pass)
               *. Float.log (limit /. q_pass)
               /. Float.log (q_fail /. q_pass)
        | _ -> r_pass)
  in
  (capacity, probes)

let histogram_quantile buckets q =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then nan
  else
    let target = q *. Float.of_int total in
    let rec go lo cum = function
      | [] -> lo
      | (hi, c) :: rest ->
          let cum' = cum +. Float.of_int c in
          if c > 0 && cum' >= target then
            if Float.is_finite hi then
              lo +. ((hi -. lo) *. (target -. cum) /. Float.of_int c)
            else lo
          else go (if Float.is_finite hi then hi else lo) cum' rest
    in
    go 0.0 0.0 buckets

let windowed_quantile ~max_windows a q =
  let n = Array.length a in
  let k = max 1 (min max_windows (n / min_samples_for q)) in
  let per = n / k in
  median (Array.init k (fun w -> quantile (Array.sub a (w * per) per) q))
