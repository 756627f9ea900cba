(** Trust-anchor stores modelling the four root programs the paper compares
    (Mozilla, Chrome, Microsoft, Apple) plus their concatenation, which the
    server-side completeness analysis uses as its baseline. *)

open Chaoschain_x509

type program = Mozilla | Chrome | Microsoft | Apple

val program_to_string : program -> string
val all_programs : program list

type t
(** An immutable set of trusted root certificates, indexed by fingerprint,
    SKID and subject DN. *)

val make : string -> Cert.t list -> t
(** [make name roots]. *)

val name : t -> string
val size : t -> int
val certs : t -> Cert.t list
val add : t -> Cert.t -> t

val mem : t -> Cert.t -> bool
(** Bit-for-bit membership. *)

val mem_skid : t -> string -> bool
(** Whether any trusted root carries the given SKID — the store-matching step
    of the paper's completeness algorithm. *)

val find_by_skid : t -> string -> Cert.t list

val issuer_candidates : t -> Cert.t -> Cert.t list
(** Roots that could have issued the given certificate, by name chaining. *)

val union : string -> t list -> t
(** Deduplicated concatenation. *)
