open Chaoschain_x509

type node = { index : int; cert : Cert.t; occurrences : int list }

type t = {
  certs : Cert.t list;
  nodes : node array;              (* unique certs, first-occurrence order *)
  edges : int list array;          (* node idx -> issuer node idxs *)
  leaf_paths : int list list Lazy.t;
}

let build_edges nodes =
  let n = Array.length nodes in
  let edges = Array.make n [] in
  for child = 0 to n - 1 do
    let out = ref [] in
    for issuer = 0 to n - 1 do
      if issuer <> child
         && Relation.issued ~issuer:nodes.(issuer).cert ~child:nodes.(child).cert
      then out := issuer :: !out
    done;
    edges.(child) <- List.rev !out
  done;
  edges

(* All maximal simple paths from node 0 following issuer edges. A self-signed
   certificate ends a path; already-visited nodes are skipped, which makes
   cross-sign cycles terminate. *)
let compute_paths nodes edges =
  let acc = ref [] in
  let rec go path current =
    let path = current :: path in
    let stop_here = Cert.is_self_signed nodes.(current).cert in
    let nexts =
      if stop_here then []
      else List.filter (fun i -> not (List.mem i path)) edges.(current)
    in
    match nexts with
    | [] -> acc := List.rev path :: !acc
    | nexts -> List.iter (go path) nexts
  in
  go [] 0;
  List.rev !acc

let build certs =
  if certs = [] then invalid_arg "Topology.build: empty certificate list";
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun pos cert ->
      let fp = Cert.fingerprint cert in
      match Hashtbl.find_opt tbl fp with
      | Some node -> Hashtbl.replace tbl fp { node with occurrences = node.occurrences @ [ pos ] }
      | None ->
          Hashtbl.replace tbl fp { index = pos; cert; occurrences = [ pos ] };
          order := fp :: !order)
    certs;
  let nodes =
    Array.of_list (List.rev_map (fun fp -> Hashtbl.find tbl fp) !order)
  in
  let edges = build_edges nodes in
  { certs; nodes; edges; leaf_paths = lazy (compute_paths nodes edges) }

let certs t = t.certs
let nodes t = Array.to_list t.nodes
let node_count t = Array.length t.nodes
let list_length t = List.length t.certs
let duplicates t = List.filter (fun n -> List.length n.occurrences > 1) (nodes t)
let leaf t = t.nodes.(0)

let paths t = List.map (List.map (fun i -> t.nodes.(i))) (Lazy.force t.leaf_paths)

let reachable_from_leaf t =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun path -> List.iter (fun n -> Hashtbl.replace seen n.index ()) path)
    (paths t);
  List.filter (fun n -> Hashtbl.mem seen n.index) (nodes t)

let irrelevant t =
  let reachable = reachable_from_leaf t in
  List.filter
    (fun n -> not (List.exists (fun r -> r.index = n.index) reachable))
    (nodes t)

let render t =
  let buf = Buffer.create 256 in
  let label_of_pos pos =
    (* A duplicate occurrence renders as first[i]. *)
    let node =
      Array.to_list t.nodes
      |> List.find (fun n -> List.mem pos n.occurrences)
    in
    if node.index = pos then string_of_int pos
    else
      let occurrence =
        let rec idx i = function
          | [] -> assert false
          | p :: _ when p = pos -> i
          | _ :: rest -> idx (i + 1) rest
        in
        idx 0 node.occurrences
      in
      Printf.sprintf "%d[%d]" node.index occurrence
  in
  Buffer.add_string buf "list:  ";
  List.iteri
    (fun pos _ ->
      if pos > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (label_of_pos pos))
    t.certs;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i node ->
      List.iter
        (fun issuer ->
          Buffer.add_string buf
            (Printf.sprintf "edge:  %d -> %d   (%s issued by %s)\n" node.index
               t.nodes.(issuer).index
               (match Dn.common_name (Cert.subject node.cert) with
               | Some cn -> cn
               | None -> "?")
               (match Dn.common_name (Cert.subject t.nodes.(issuer).cert) with
               | Some cn -> cn
               | None -> "?")))
        t.edges.(i))
    t.nodes;
  List.iter
    (fun path ->
      Buffer.add_string buf
        (Printf.sprintf "path:  %s\n"
           (String.concat " -> " (List.map (fun n -> string_of_int n.index) path))))
    (paths t);
  Buffer.contents buf
