(** Per-segment offset index: the sidecar that turns a flat {!Frame}
    segment into a random-access array of records.

    The index is {e derived} data — the frames are always authoritative.
    The whole sidecar file is one CRC-protected frame; {!load} validates
    structure (strictly increasing offsets starting at 0, matching
    segment length) and {!agrees} additionally probes every indexed
    frame against the segment bytes (kind, CRC, exact tiling). Anything
    that disagrees means the index is discarded and rebuilt from the
    segment with {!of_segment} — an index can be lost or corrupted
    without losing any data, and is never trusted over the frames. *)

type t = {
  count : int;  (** number of indexed records *)
  seg_len : int;  (** segment byte length the offsets describe *)
  offsets : int array;  (** frame start offsets, strictly increasing *)
}

val of_segment : string -> t * Frame.tail
(** Rebuild the index by scanning the segment; the index covers the
    whole-frame prefix and the tail reports how the scan ended (exactly
    as {!Frame.fold} would). *)

val encode : t -> string
(** The index frame payload: u8 version, u64 segment length, u32 count,
    count × u64 offsets. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}, with structural validation. *)

val save : string -> t -> unit
(** Write the sidecar file (a single CRC-protected frame) at a path. *)

val load : string -> seg_len:int -> (t, string) result
(** Read and validate a sidecar against the actual segment byte length;
    every failure mode (missing file, truncation, CRC damage, version or
    shape mismatch, stale length) is an [Error] naming the problem. *)

val agrees : ?par:Par.t -> t -> string -> kind:int -> bool
(** [agrees t seg ~kind]: is every indexed frame whole, CRC-valid, of
    [kind], and do the frames tile [seg] exactly? O(segment) CRC work,
    chunked through [par]; allocation-free. [true] means the index can
    be trusted for random access into this segment. *)
