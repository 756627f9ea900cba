type t = {
  mutable enabled : bool;
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable w0 : float array;
  mutable w1 : float array;
  names : (string, int) Hashtbl.t;
  mutable rev_names : string list;
  mutable current : int;  (* innermost open span, -1 at top level *)
}

let create () =
  let cap = 1024 in
  { enabled = true; n = 0; name = Array.make cap 0;
    parent = Array.make cap (-1);
    start = Array.make cap 0.0; stop = Array.make cap 0.0;
    w0 = Array.make cap 0.0; w1 = Array.make cap 0.0;
    names = Hashtbl.create 64; rev_names = []; current = -1 }

let set_enabled t b = t.enabled <- b

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let grow t =
  let cap = 2 * Array.length t.name in
  let gi a d = Array.append a (Array.make (cap - Array.length a) d) in
  t.name <- gi t.name 0;
  t.parent <- gi t.parent (-1);
  t.start <- gi t.start 0.0;
  t.stop <- gi t.stop 0.0;
  t.w0 <- gi t.w0 0.0;
  t.w1 <- gi t.w1 0.0

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.names in
      Hashtbl.add t.names s i;
      t.rev_names <- s :: t.rev_names;
      i

let span t name f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name_id t name;
    t.parent.(i) <- t.current;
    let outer = t.current in
    t.current <- i;
    t.w0.(i) <- Gc.minor_words ();
    t.start.(i) <- now_ns ();
    let close () =
      t.stop.(i) <- now_ns ();
      t.w1.(i) <- Gc.minor_words ();
      t.current <- outer
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

type layer = {
  calls : int;
  incl_ns : float;
  self_ns : float;
  incl_words : float;
  self_words : float;
}

(* Self time follows the definition in [Arith.self_time]: a span's
   duration minus the part of it its children cover. Children of one span
   never overlap (the replay is single-threaded), so their covered time is
   gathered per parent and clipped by [Arith.self_time]. *)
let self_values t =
  let kids = Array.make t.n [] in
  let kid_words = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p);
      kid_words.(p) <- kid_words.(p) +. (t.w1.(i) -. t.w0.(i))
    end
  done;
  Array.init t.n (fun i ->
      ( Arith.self_time ~start:t.start.(i) ~stop:t.stop.(i) kids.(i),
        t.w1.(i) -. t.w0.(i) -. kid_words.(i) ))

let layers t =
  let names = Array.of_list (List.rev t.rev_names) in
  let acc =
    Array.make (Array.length names)
      { calls = 0; incl_ns = 0.0; self_ns = 0.0; incl_words = 0.0;
        self_words = 0.0 }
  in
  let selves = self_values t in
  for i = 0 to t.n - 1 do
    let k = t.name.(i) in
    let a = acc.(k) in
    let s, sw = selves.(i) in
    acc.(k) <-
      { calls = a.calls + 1;
        incl_ns = a.incl_ns +. (t.stop.(i) -. t.start.(i));
        self_ns = a.self_ns +. s;
        incl_words = a.incl_words +. (t.w1.(i) -. t.w0.(i));
        self_words = a.self_words +. sw }
  done;
  Array.to_list (Array.mapi (fun k name -> (name, acc.(k))) names)
  |> List.filter (fun (_, l) -> l.calls > 0)

let total_self_ns t =
  Array.fold_left (fun acc (s, _) -> acc +. s) 0.0 (self_values t)
