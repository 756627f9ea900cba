(** Certificate revocation lists.

    The paper treats revocation as part of path *validation* (and notes that
    MbedTLS already consults it during path {i construction}); it is excluded
    from the main measurement but named as the factor its heuristic test
    chains do not cover. This module provides the substrate so the engine can
    model both integration styles: a minimal CRL — issuer, update window,
    revoked serial set, signature by the issuing CA — with the same simulated
    signature scheme certificates use. *)

module Keys = Chaoschain_crypto.Keys
module Prng = Chaoschain_crypto.Prng

type revocation_reason =
  | Unspecified
  | Key_compromise
  | Ca_compromise
  | Superseded
  | Cessation_of_operation

val reason_to_string : revocation_reason -> string

type revoked_entry = {
  serial : string;                  (** the revoked certificate's serial *)
  revoked_at : Vtime.t;
  reason : revocation_reason;
}

type t
(** A signed CRL; immutable. *)

val issue :
  Prng.t -> issuer:Issue.signer -> this_update:Vtime.t -> ?next_update:Vtime.t ->
  revoked_entry list -> t
(** Sign a CRL over the given entries. [next_update] defaults to 30 days
    after [this_update]. *)

val issuer_dn : t -> Dn.t
val this_update : t -> Vtime.t
val entries : t -> revoked_entry list

val is_stale : t -> Vtime.t -> bool
(** [nextUpdate] has passed. *)

val signed_by : t -> Cert.t -> bool
(** The candidate CA's key verifies this CRL's signature. *)

type status =
  | Good
  | Revoked of revoked_entry
  | Unknown_status of string  (** no CRL, stale CRL, or bad CRL signature *)

val status_to_string : status -> string

val check : crl:t option -> issuer:Cert.t -> now:Vtime.t -> Cert.t -> status
(** Revocation status of a certificate against its issuer's CRL, applying the
    signature and freshness checks a real client performs. *)
