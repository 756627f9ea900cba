open Chaoschain_x509
open Chaoschain_pki

type audience = For_ca | For_http_server | For_administrator

let audience_to_string = function
  | For_ca -> "Certificate Authority"
  | For_http_server -> "HTTP server"
  | For_administrator -> "web administrator"

type advice = {
  audience : audience;
  severity : [ `Must | `Should ];
  text : string;
}

let server_advice report =
  let order = report.Compliance.order in
  let completeness = report.Compliance.completeness in
  let advices = ref [] in
  let add audience severity text = advices := { audience; severity; text } :: !advices in
  if not (Leaf_check.compliant report.Compliance.leaf) then
    add For_administrator `Must
      "place the server (end-entity) certificate first in the configured chain \
       file and make sure its names cover the served domain";
  if Order_check.has_duplicates order then begin
    add For_administrator `Must
      "remove duplicated certificates: the leaf belongs in the certificate \
       file only, never repeated in the chain/bundle file";
    add For_http_server `Should
      "reject duplicate leaf certificates at configuration time, as \
       Microsoft-Azure-Application-Gateway does"
  end;
  if Order_check.has_irrelevant order then
    add For_administrator `Must
      "remove certificates unrelated to the served leaf (stale renewals, \
       other sites' chains, spare roots)";
  if Order_check.has_reversed order then begin
    add For_administrator `Must
      "reorder the chain into issuance order: leaf first, each following \
       certificate certifying the one before it";
    add For_ca `Must
      "deliver ca-bundle files in issuance order with per-server installation \
       instructions; reversed bundles are the dominant cause of reversed \
       deployments"
  end;
  if order.Order_check.multiple_paths && not (Order_check.has_reversed order) then
    add For_administrator `Should
      "when serving cross-signed alternatives, insert each variant after the \
       certificate it certifies so every path stays in issuance order";
  (match completeness.Completeness.verdict with
  | Completeness.Incomplete ->
      add For_administrator `Must
        "include every intermediate certificate: clients without AIA fetching \
         cannot complete the chain";
      (match completeness.Completeness.cause with
      | Some Completeness.Aia_missing ->
          add For_ca `Should
            "embed caIssuers AIA URIs in issued certificates so capable \
             clients can self-repair incomplete deployments"
      | Some Completeness.Aia_fetch_failed ->
          add For_ca `Must "keep the caIssuers distribution endpoint available"
      | Some Completeness.Aia_wrong_cert ->
          add For_ca `Must
            "serve the *issuer's* certificate at the caIssuers URI, not the \
             certificate itself"
      | _ -> ())
  | _ -> ());
  if !advices <> [] then
    add For_administrator `Should
      "adopt automated certificate management (ACME): automation deploys \
       compliant chains and renews them on time";
  List.rev !advices

let corrected_chain report =
  match Topology.paths report.Compliance.topology with
  | [] -> None
  | paths ->
      let complete =
        List.find_opt
          (fun path ->
            Cert.is_self_signed
              (List.nth path (List.length path - 1)).Topology.cert)
          paths
      in
      let path = match complete with Some p -> Some p | None -> List.nth_opt paths 0 in
      (match (path, report.Compliance.completeness.Completeness.verdict) with
      | _, Completeness.Incomplete -> None
      | Some path, _ -> Some (List.map (fun n -> n.Topology.cert) path)
      | None, _ -> None)

type ablation_step = {
  label : string;
  params : Build_params.t;
  accepted : int;
  total : int;
}

let capability_ablation ~store ~aia ~now corpus =
  let base =
    { Build_params.rfc4158 with
      Build_params.reorder = false;
      aia_fetch = false;
      backtracking = false }
  in
  let ladder =
    [ ("none of the three capabilities", base);
      ("+ order reorganization", { base with Build_params.reorder = true });
      ("+ AIA completion",
       { base with Build_params.reorder = true; aia_fetch = true });
      ("+ backtracking (all three)",
       { base with Build_params.reorder = true; aia_fetch = true;
         backtracking = true });
      ("full recommended profile", Build_params.rfc4158) ]
  in
  List.map
    (fun (label, params) ->
      let ctx =
        { Path_builder.params; store;
          aia = (if params.Build_params.aia_fetch then Some aia else None);
          cache = []; crls = None; now }
      in
      let accepted =
        List.fold_left
          (fun acc (domain, chain) ->
            if Engine.accepted (Engine.run ctx ~host:(Some domain) chain) then acc + 1
            else acc)
          0 corpus
      in
      { label; params; accepted; total = List.length corpus })
    ladder

type ambiguity_stats = {
  chains_with_ties : int;
  tie_with_trusted_root : int;
  tie_validity_variants : int;
}

(* Candidates with identical subject DN and identical SKID, both plausibly
   issuing some certificate of the chain. *)
let ambiguity_statistics ~store corpus =
  let stats = ref { chains_with_ties = 0; tie_with_trusted_root = 0; tie_validity_variants = 0 } in
  List.iter
    (fun (_, chain) ->
      let topo = Topology.build chain in
      let nodes = Topology.nodes topo in
      let tie = ref false and trusted = ref false and validity = ref false in
      List.iter
        (fun child ->
          let candidates =
            List.filter
              (fun n ->
                n.Topology.index <> child.Topology.index
                && Relation.issued_by_name ~issuer:n.Topology.cert
                     ~child:child.Topology.cert
                && Relation.kid_status ~issuer:n.Topology.cert
                     ~child:child.Topology.cert
                   <> Relation.Kid_mismatch)
              nodes
            @ List.map
                (fun c ->
                  { Topology.index = -1; cert = c; occurrences = [] })
                (Root_store.issuer_candidates store child.Topology.cert)
          in
          (* Deduplicate bit-identical candidates (in-list root vs store). *)
          let uniq =
            List.sort_uniq
              (fun a b -> Cert.compare a.Topology.cert b.Topology.cert)
              candidates
          in
          if List.length uniq > 1 then begin
            tie := true;
            if List.exists
                 (fun n ->
                   Cert.is_self_signed n.Topology.cert
                   && Root_store.mem store n.Topology.cert)
                 uniq
            then trusted := true
            else if
              List.exists
                (fun a ->
                  List.exists
                    (fun b ->
                      a.Topology.index <> b.Topology.index
                      && Dn.equal (Cert.subject a.Topology.cert)
                           (Cert.subject b.Topology.cert)
                      && not
                           (Vtime.equal
                              (Cert.not_before a.Topology.cert)
                              (Cert.not_before b.Topology.cert)))
                    uniq)
                uniq
            then validity := true
          end)
        nodes;
      if !tie then
        stats :=
          { chains_with_ties = !stats.chains_with_ties + 1;
            tie_with_trusted_root =
              (!stats.tie_with_trusted_root + if !trusted then 1 else 0);
            tie_validity_variants =
              (!stats.tie_validity_variants + if !validity then 1 else 0) })
    corpus;
  !stats
