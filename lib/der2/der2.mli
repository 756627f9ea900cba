(** The second, independent DER decoder of the differential robustness
    harness.

    [Chaoschain_der.Der] — the production decoder every verdict rests on — is
    a recursive-descent reader with bit-twiddling header parsing and a
    zero-copy slice variant. This module re-implements the same DER subset
    from the X.690 text alone, on a deliberately different design, so that
    the two disagree only where at least one of them is wrong:

    - {b table-driven} header classification: all 256 identifier octets are
      decoded once into a 256-entry table at load time; parsing a header is an
      array read, not bit arithmetic;
    - an {b iterative} value walk over an explicit heap-allocated frame
      stack, where the production decoder recurses on the OCaml stack;
    - a {b typed error taxonomy} ({!error}) carrying byte offsets, where the
      production decoder formats strings.

    The dune stanza gives this library no dependencies at all, so it cannot
    share a line of code with [lib/der] (nor its bugs). Both decoders accept
    exactly the same inputs: one definite-length, minimally-encoded,
    low-tag-number TLV value occupying the whole input, constructed nesting
    bounded by {!max_depth}. The differential fuzzer
    ([Chaoschain_fuzz.Derfuzz]) pins that equivalence under mutation. *)

type cls = Univ | Appl | Ctx | Priv

type hdr = { h_cls : cls; h_constructed : bool; h_number : int }
(** One decoded identifier octet (low tag numbers only). *)

type tree = Leaf of hdr * string | Node of hdr * tree list
(** The decoded TLV tree: primitive content octets at the leaves. *)

(** Why an input was rejected, with the byte offset of the rejection. The
    four constructors are the taxonomy the divergence classifier reports:
    ran out of bytes, a form DER forbids, the anti-bomb depth bound, and
    bytes left over after the value. *)
type error =
  | Truncated of { at : int; what : string }
      (** The input ended inside [what] (header, length octets, content). *)
  | Forbidden of { at : int; what : string }
      (** Well-formed BER that DER (or this X.509 subset) rejects:
          indefinite or non-minimal lengths, multi-octet tag numbers,
          length fields wider than 4 octets. *)
  | Nesting of { at : int }
      (** Constructed nesting deeper than {!max_depth}. *)
  | Trailing of { at : int; extra : int }
      (** The value ended [extra] bytes before the input did. *)

val max_depth : int
(** Same bound as [Chaoschain_der.Der.max_depth] (1024); both decoders must
    reject the same nesting bombs for the accept sets to stay equal. The
    constant is duplicated, not shared — independence beats DRY here. *)

val decode : string -> (tree, error) result
(** Decode exactly one value occupying the whole input. Never raises; the
    walk is iterative, so even million-deep nesting bombs cost a heap
    allocation per level, not OCaml stack. *)

val error_to_string : error -> string

val pp : Format.formatter -> tree -> unit
(** Minimal debugging printer (class/number/length skeleton). *)
