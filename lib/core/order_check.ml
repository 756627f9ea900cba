open Chaoschain_x509

type duplicate_kind = Dup_leaf | Dup_intermediate | Dup_root

type irrelevant_kind = Irr_extra_leaf | Irr_self_signed | Irr_foreign_chain | Irr_lone

type report = {
  duplicates : (duplicate_kind * Topology.node) list;
  irrelevant : (irrelevant_kind * Topology.node) list;
  path_count : int;
  multiple_paths : bool;
  cross_sign_paths : bool;
  reversed_paths : int;
  all_paths_reversed : bool;
  ordered : bool;
}

let role_of_node topo (node : Topology.node) =
  if Cert.is_self_signed node.Topology.cert then Dup_root
  else if node.Topology.index = (Topology.leaf topo).Topology.index
          || not (Cert.is_ca node.Topology.cert)
  then Dup_leaf
  else Dup_intermediate

let leaf_like (node : Topology.node) =
  (not (Cert.is_ca node.Topology.cert)) && not (Cert.is_self_signed node.Topology.cert)

let classify_irrelevant irr =
  let issuance_among a b =
    Relation.issued ~issuer:a.Topology.cert ~child:b.Topology.cert
    || Relation.issued ~issuer:b.Topology.cert ~child:a.Topology.cert
  in
  List.map
    (fun node ->
      let kind =
        if leaf_like node then Irr_extra_leaf
        else if Cert.is_self_signed node.Topology.cert then
          (* Distinguish a root participating in a foreign chain from a lone
             unrelated root. *)
          if List.exists (fun other -> other.Topology.index <> node.Topology.index
                                       && issuance_among node other) irr
          then Irr_foreign_chain
          else Irr_self_signed
        else if List.exists (fun other -> other.Topology.index <> node.Topology.index
                                          && issuance_among node other) irr
        then Irr_foreign_chain
        else Irr_lone
      in
      (kind, node))
    irr

(* A path is reversed when some certificate's issuer occurs earlier in the
   server-provided list than the certificate itself. The leaf-first path
   [n0; n1; ...] is compliant when list positions strictly increase. *)
let path_reversed path =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if b.Topology.index < a.Topology.index then true else go rest
    | _ -> false
  in
  go path

(* Cross-sign detection: two distinct nodes sharing subject DN and SKID but
   with different issuers (Figure 2c's nodes 2 and 3). *)
let has_cross_signs nodes =
  let rec pairs = function
    | [] -> false
    | a :: rest ->
        List.exists
          (fun b ->
            Dn.equal (Cert.subject a.Topology.cert) (Cert.subject b.Topology.cert)
            && (not (Dn.equal (Cert.issuer a.Topology.cert) (Cert.issuer b.Topology.cert)))
            &&
            match (Cert.subject_key_id a.Topology.cert, Cert.subject_key_id b.Topology.cert) with
            | Some x, Some y -> String.equal x y
            | _ -> false)
          rest
        || pairs rest
  in
  pairs nodes

let analyze topo =
  let duplicates =
    List.map (fun n -> (role_of_node topo n, n)) (Topology.duplicates topo)
  in
  let irrelevant = classify_irrelevant (Topology.irrelevant topo) in
  let paths = Topology.paths topo in
  let path_count = List.length paths in
  let multiple_paths = path_count > 1 in
  let cross_sign_paths =
    multiple_paths && has_cross_signs (Topology.reachable_from_leaf topo)
  in
  let reversed = List.filter path_reversed paths in
  let reversed_paths = List.length reversed in
  let all_paths_reversed = path_count > 0 && reversed_paths = path_count in
  let ordered =
    duplicates = [] && irrelevant = [] && (not multiple_paths) && reversed_paths = 0
  in
  { duplicates; irrelevant; path_count; multiple_paths; cross_sign_paths;
    reversed_paths; all_paths_reversed; ordered }

let has_duplicates r = r.duplicates <> []
let has_irrelevant r = r.irrelevant <> []
let has_reversed r = r.reversed_paths > 0

let violations r =
  (if has_duplicates r then
     [ Printf.sprintf "duplicate certificates (%d)" (List.length r.duplicates) ]
   else [])
  @ (if has_irrelevant r then
       [ Printf.sprintf "irrelevant certificates (%d)" (List.length r.irrelevant) ]
     else [])
  @ (if r.multiple_paths then
       [ Printf.sprintf "multiple paths (%d)" r.path_count ]
     else [])
  @
  if has_reversed r then
    [ Printf.sprintf "reversed sequences (%d of %d paths)" r.reversed_paths r.path_count ]
  else []
