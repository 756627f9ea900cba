(** A DER (X.690 Distinguished Encoding Rules) subset sufficient for X.509.

    Values are represented as a generic TLV tree; typed constructors and
    destructors cover the universal types certificates need. Encoding always
    uses definite lengths with minimal length octets; decoding rejects
    indefinite lengths, non-minimal long-form lengths, and truncated input,
    mirroring the strictness real verifiers apply to certificate bytes. *)

type tag_class = Universal | Application | Context_specific | Private

type tag = { cls : tag_class; constructed : bool; number : int }
(** A decoded identifier octet (low-tag-number form only; tag numbers
    above 30 are not used by X.509 and are rejected). *)

type t =
  | Prim of tag * string  (** primitive TLV: tag + raw content octets *)
  | Cons of tag * t list  (** constructed TLV: tag + child values *)

(** {1 Constructors for universal types} *)

val boolean : bool -> t
val integer_of_int : int -> t

val integer_bytes : string -> t
(** Big-endian two's-complement content octets, given verbatim (used for
    large serial numbers). Raises [Invalid_argument] on empty input. *)

val bit_string : ?unused:int -> string -> t
val octet_string : string -> t
val null : t
val oid : Oid.t -> t
val utf8_string : string -> t
val printable_string : string -> t
val ia5_string : string -> t

val utc_time : string -> t
(** Content given pre-rendered, e.g. ["240314000000Z"]. *)

val generalized_time : string -> t
val sequence : t list -> t
val set : t list -> t

val context : int -> t list -> t
(** Constructed context-specific tag [n] (EXPLICIT tagging). *)

val context_prim : int -> string -> t
(** Primitive context-specific tag [n] (IMPLICIT tagging of a primitive). *)

(** {1 Destructors}

    Each returns [Error] with a descriptive message when the value has the
    wrong shape. *)

type 'a or_error = ('a, string) result

val as_boolean : t -> bool or_error
val as_integer_int : t -> int or_error
val as_bit_string : t -> (int * string) or_error
val as_octet_string : t -> string or_error
val as_oid : t -> Oid.t or_error
val as_string : t -> string or_error
(** Accepts UTF8String, PrintableString or IA5String. *)

val as_sequence : t -> t list or_error
val as_set : t -> t list or_error

val as_context : int -> t -> t list or_error
(** Children of a constructed context-specific tag [n]. *)

(** {1 Wire codec} *)

val encode : t -> string
(** DER-encode a value. *)

val encode_many : t list -> string
(** Concatenation of the encodings of several values. *)

val max_depth : int
(** Constructed values nested deeper than this many levels are rejected with
    [Error _]. The bound exists so adversarial "nesting bombs" (a few hundred
    KiB can legally encode tens of thousands of nested SEQUENCEs) cannot turn
    the recursive decoders into a [Stack_overflow]; X.509 structures are
    single-digit deep. The independent second decoder ({!Chaoschain_der2.Der2})
    applies the same bound, keeping the two accept sets identical. *)

val decode : string -> t or_error
(** Decode exactly one value occupying the whole input. Never raises: every
    malformed input — truncation, forbidden length forms, nesting past
    {!max_depth} — is an [Error _]. *)

val decode_prefix : string -> int -> (t * int) or_error
(** [decode_prefix s off] decodes one value starting at [off]; returns it and
    the offset one past its last byte. *)

(** {1 Zero-copy slice reader}

    The hot decode path (certificate parsing, TLS certificate messages) walks
    TLV structure directly over the original buffer: a {!slice} is a
    [{buf; off; len}] window, a {!node} is one decoded TLV whose header has
    been read but whose bytes have not been copied. Content is only
    materialised ([String.sub]) at the leaves a caller actually keeps.
    [decode_slice (slice_of_string s)] accepts exactly the inputs [decode s]
    accepts and returns the same value; on malformed input both fail, though
    the lazy reader may describe an overrun differently than the eager
    decoder. *)

type slice = { buf : string; off : int; len : int }
(** A window into [buf]; never copied by the reader itself. *)

val slice_of_string : string -> slice

val slice_string : slice -> string
(** Materialise the window (returns [buf] itself when the window covers it). *)

type node = {
  n_tag : tag;
  n_raw : slice;      (** the full TLV: header + content octets *)
  n_content : slice;  (** the content octets only *)
}

val read_node : slice -> (node * slice) or_error
(** Read the TLV at the head of the slice; returns the node and the remaining
    bytes after it. No content bytes are copied. *)

val node_children : node -> node list or_error
(** One-level child nodes of a constructed TLV (zero-copy). *)

val node_tag : node -> tag

val node_content : node -> string
(** Copy of the node's content octets. *)

val node_raw : node -> string
(** Copy of the node's full TLV bytes (header + content). *)

val tree_of_node : node -> t or_error
(** Materialise the node as a tree (for reuse of the typed tree
    destructors on small sub-structures). *)

val decode_slice : slice -> t or_error
(** Decode exactly one value occupying the whole slice;
    equals [decode (slice_string s)]. *)

(** Typed destructors over nodes, mirroring the [as_*] family above (same
    error strings). *)

val as_sequence_n : node -> node list or_error
val as_integer_bytes_n : node -> string or_error
val as_integer_int_n : node -> int or_error
val as_bit_string_n : node -> (int * string) or_error
val as_oid_n : node -> Oid.t or_error
val as_context_n : int -> node -> node list or_error
val is_context_n : int -> node -> bool

val pp : Format.formatter -> t -> unit
(** Debugging pretty-printer (openssl asn1parse flavoured). *)
