(** Distribution point for certificate revocation lists: one current CRL per
    issuing CA, looked up by issuer DN — the stand-in for fetching the CRL
    from a CRL distribution point URI. *)

open Chaoschain_x509

type t

val create : unit -> t

val lookup : t -> Dn.t -> Crl.t option

val lookup_for : t -> issuer:Cert.t -> Crl.t option
(** The CRL governing certificates issued by [issuer]. *)

val revoke :
  Chaoschain_crypto.Prng.t -> t -> issuer:Issue.signer -> now:Vtime.t ->
  ?reason:Crl.revocation_reason -> Cert.t -> unit
(** Convenience: add the certificate's serial to its issuer's CRL (reissuing
    the CRL with an updated window). *)

val status : t -> issuer:Cert.t -> now:Vtime.t -> Cert.t -> Crl.status
