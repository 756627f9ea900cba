open Chaoschain_x509

type program = Mozilla | Chrome | Microsoft | Apple

let program_to_string = function
  | Mozilla -> "Mozilla"
  | Chrome -> "Chrome"
  | Microsoft -> "Microsoft"
  | Apple -> "Apple"

let all_programs = [ Mozilla; Chrome; Microsoft; Apple ]

module Smap = Map.Make (String)

type t = {
  name : string;
  by_fp : Cert.t Smap.t;
  by_skid : Cert.t list Smap.t;
  roots : Cert.t list; (* newest first *)
}

let empty name = { name; by_fp = Smap.empty; by_skid = Smap.empty; roots = [] }

let add t cert =
  let fp = Cert.fingerprint cert in
  if Smap.mem fp t.by_fp then t
  else
    let by_skid =
      match Cert.subject_key_id cert with
      | None -> t.by_skid
      | Some skid ->
          Smap.update skid
            (fun prev -> Some (cert :: Option.value prev ~default:[]))
            t.by_skid
    in
    { t with by_fp = Smap.add fp cert t.by_fp; by_skid; roots = cert :: t.roots }

let make name certs = List.fold_left add (empty name) certs
let name t = t.name
let size t = Smap.cardinal t.by_fp
let certs t = List.rev t.roots
let mem t cert = Smap.mem (Cert.fingerprint cert) t.by_fp
let mem_skid t skid = Smap.mem skid t.by_skid
let find_by_skid t skid = Option.value (Smap.find_opt skid t.by_skid) ~default:[]

(* Walking the newest-first list and consing the matches yields them in
   insertion order, without copying the store on every lookup. *)
let find_by_subject t dn =
  List.fold_left
    (fun acc root -> if Dn.equal (Cert.subject root) dn then root :: acc else acc)
    [] t.roots

let issuer_candidates t cert = find_by_subject t (Cert.issuer cert)

let union name stores =
  List.fold_left (fun acc s -> List.fold_left add acc (certs s)) (empty name) stores
