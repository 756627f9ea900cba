module Keys = Chaoschain_crypto.Keys
module Prng = Chaoschain_crypto.Prng
module Der = Chaoschain_der.Der

type revocation_reason =
  | Unspecified
  | Key_compromise
  | Ca_compromise
  | Superseded
  | Cessation_of_operation

let reason_to_string = function
  | Unspecified -> "unspecified"
  | Key_compromise -> "keyCompromise"
  | Ca_compromise -> "cACompromise"
  | Superseded -> "superseded"
  | Cessation_of_operation -> "cessationOfOperation"

type revoked_entry = {
  serial : string;
  revoked_at : Vtime.t;
  reason : revocation_reason;
}

type t = {
  issuer : Dn.t;
  this_update : Vtime.t;
  next_update : Vtime.t;
  entries : revoked_entry list;
  tbs_der : string;
  signature : Keys.signature;
}

let reason_code = function
  | Unspecified -> 0
  | Key_compromise -> 1
  | Ca_compromise -> 2
  | Superseded -> 4
  | Cessation_of_operation -> 5

(* A DER rendering of the TBS part, so the signature covers real bytes. *)
let tbs_to_der issuer this_update next_update entries =
  Der.encode
    (Der.sequence
       [ Der.integer_of_int 1;
         Dn.to_der issuer;
         Vtime.to_der_time this_update;
         Vtime.to_der_time next_update;
         Der.sequence
           (List.map
              (fun e ->
                Der.sequence
                  [ Der.integer_bytes e.serial;
                    Vtime.to_der_time e.revoked_at;
                    Der.integer_of_int (reason_code e.reason) ])
              entries) ])

let issue rng ~issuer ~this_update ?next_update entries =
  ignore rng;
  let next_update =
    Option.value next_update ~default:(Vtime.add_days this_update 30)
  in
  let issuer_dn = Cert.subject issuer.Issue.cert in
  let tbs_der = tbs_to_der issuer_dn this_update next_update entries in
  { issuer = issuer_dn;
    this_update;
    next_update;
    entries;
    tbs_der;
    signature = Keys.sign issuer.Issue.key tbs_der }

let issuer_dn t = t.issuer
let this_update t = t.this_update
let entries t = t.entries
let is_stale t now = Vtime.(t.next_update < now)

let signed_by t cert =
  Dn.equal t.issuer (Cert.subject cert)
  && Keys.verify (Cert.public_key cert) t.tbs_der t.signature

let find_serial t serial =
  List.find_opt (fun e -> String.equal e.serial serial) t.entries

type status = Good | Revoked of revoked_entry | Unknown_status of string

let status_to_string = function
  | Good -> "good"
  | Revoked e -> Printf.sprintf "revoked (%s)" (reason_to_string e.reason)
  | Unknown_status why -> "unknown: " ^ why

let check ~crl ~issuer ~now cert =
  match crl with
  | None -> Unknown_status "no CRL available"
  | Some crl ->
      if not (signed_by crl issuer) then
        Unknown_status "CRL not signed by the certificate's issuer"
      else if is_stale crl now then Unknown_status "CRL is stale"
      else (
        match find_serial crl (Cert.serial cert) with
        | Some e -> Revoked e
        | None -> Good)
