(** The TLS Certificate handshake message, unified over both wire formats.

    TLS 1.2 (RFC 5246 section 7.4.2) frames a bare 24-bit-length vector of
    24-bit-length certificate entries. TLS 1.3 (RFC 8446 section 4.4.2)
    prefixes a certificate_request_context and attaches a 16-bit-length
    extension block to every entry. Both encodings are views of one typed
    message {!t}: a list of {!entry} values (certificate plus per-entry
    extensions) with a request context and the format it travels in. This is
    the byte string a scanner actually receives; the simulated ZGrab parses
    served chains out of it, chaind accepts either framing in requests, and
    the QCheck suite pins the mitls-style codec lemmas (round-trip,
    injectivity, cross-format non-confusability) as executable properties. *)

open Chaoschain_x509

type format = Tls12 | Tls13

val format_to_string : format -> string
(** ["1.2"] / ["1.3"]. *)

val format_of_string : string -> format option
(** Accepts ["1.2"], ["tls12"], ["tls1.2"] (any case), and the 1.3
    spellings. *)

type entry = {
  cert : Cert.t;
  extensions : (int * string) list;
      (** per-entry extension list as (type, opaque data) pairs; always []
          on the TLS 1.2 wire *)
}

type t = {
  context : string;  (** certificate_request_context; "" on the 1.2 wire *)
  entries : entry list;
  format : format;   (** the wire framing this message (en/de)codes with *)
}

val entry : ?extensions:(int * string) list -> Cert.t -> entry

val of_certs : ?context:string -> format -> Cert.t list -> t
(** Extension-free entries. Raises [Invalid_argument] for a non-empty
    [context] with [Tls12] (the 1.2 wire has no context field, so encoding
    one could not round-trip). *)

val certs : t -> Cert.t list
(** The certificate list, extensions dropped (mitls' [chain_down]). *)

val is_classic : t -> bool
(** Every entry's extension list is empty (mitls' [is_classic_chain]) — the
    precondition for re-encoding a 1.3 message in the 1.2 format without
    losing information. *)

val equal : t -> t -> bool

(** {1 Codec}

    [encode]/[decode] dispatch on {!format}. Encoding is total for messages
    built by {!of_certs}; it raises [Invalid_argument] on structure the
    selected wire format cannot carry (an entry over [2^24-1] bytes, an
    extension block over [2^16-1] bytes, a context over 255 bytes, or
    extensions / a context under [Tls12]). Decoding is strict: every length
    field is bounds-checked, per-entry extension blocks are parsed item by
    item (never silently discarded), and trailing garbage after the outer
    vector is an error. *)

val encode : t -> string

val decode : format -> string -> (t, string) result
(** [decode fmt s] parses [s] under the [fmt] framing; the result's
    [format] field records [fmt]. *)

val decode_auto : string -> (t, string) result
(** Try [Tls12] first, then [Tls13]; the error names both failures. For
    realistically sized chains the two framings are non-confusable, so the
    order only matters for pathological inputs. *)

(** {1 Legacy single-format API}

    Thin wrappers over the typed codec; kept for callers that only deal in
    bare certificate lists. *)

val encode_tls12 : Cert.t list -> string
val decode_tls12 : string -> (Cert.t list, string) result
val encode_tls13 : ?context:string -> Cert.t list -> string
val decode_tls13 : string -> (string * Cert.t list, string) result
(** Returns the request context and the certificate list (extensions, if
    any, are surfaced by {!decode} instead). *)
