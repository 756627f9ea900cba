(** X.509 v3 extensions relevant to chain construction (RFC 5280 section 4.2):
    Basic Constraints, Key Usage, Extended Key Usage, Subject Alternative
    Name, Subject Key Identifier, Authority Key Identifier, and Authority
    Information Access. Other extensions round-trip opaquely. *)

module Der = Chaoschain_der.Der
module Oid = Chaoschain_der.Oid

type key_usage_flag =
  | Digital_signature
  | Content_commitment
  | Key_encipherment
  | Data_encipherment
  | Key_agreement
  | Key_cert_sign  (** the flag chain construction cares about for issuers *)
  | Crl_sign
  | Encipher_only
  | Decipher_only

type general_name =
  | Dns of string
  | Ip of string       (** dotted-quad text, stored as such *)
  | Uri of string
  | Directory of Dn.t

type basic_constraints = { ca : bool; path_len : int option }

type authority_key_id = {
  akid_key_id : string option;          (** 20-byte key identifier *)
  akid_issuer : general_name list;      (** alternative: issuer name ... *)
  akid_serial : string option;          (** ... plus serial *)
}

type authority_info_access = {
  ca_issuers : string list;  (** caIssuers URIs, the AIA-completion source *)
  ocsp : string list;
}

type value =
  | Basic_constraints of basic_constraints
  | Key_usage of key_usage_flag list
  | Ext_key_usage of Oid.t list
  | Subject_alt_name of general_name list
  | Subject_key_id of string
  | Authority_key_id of authority_key_id
  | Authority_info_access of authority_info_access
  | Unknown of Oid.t * string  (** OID + raw extnValue octets *)

type t = { critical : bool; value : value }

val basic_constraints : ?critical:bool -> ca:bool -> ?path_len:int -> unit -> t
val key_usage : ?critical:bool -> key_usage_flag list -> t
val ext_key_usage : Oid.t list -> t
val subject_alt_name : general_name list -> t
val subject_key_id : string -> t
val authority_key_id : string -> t
(** AKID carrying just a keyIdentifier, the dominant real-world form. *)

val authority_key_id_by_name : Dn.t -> string -> t
(** AKID referencing issuer name + serial instead of a key id. *)

val authority_info_access : ?ocsp:string list -> ca_issuers:string list -> unit -> t

val find : Oid.t -> t list -> t option
(** First extension with the given OID. *)

val to_der : t -> Der.t
(** The [Extension ::= SEQUENCE { extnID, critical, extnValue }] encoding. *)

val of_der : Der.t -> (t, string) result

val pp : Format.formatter -> t -> unit
