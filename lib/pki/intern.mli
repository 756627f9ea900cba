(** Fingerprint-keyed, Domain-safe certificate intern table.

    Decode paths that receive raw certificate DER (PEM files, TLS
    certificate messages, service requests) parse each distinct certificate
    once and share the immutable {!Chaoschain_x509.Cert.t} thereafter.
    Lookups are keyed by the SHA-256 of the DER — the same digest that is
    the certificate's identity everywhere else — and verified against the
    raw bytes on a hit, so aliasing is impossible even under hash collision.

    The table is sharded by fingerprint prefix with one mutex per shard;
    parsing happens outside the lock. Interning only affects sharing, never
    results: a cached certificate is byte-for-byte the value a fresh parse
    would produce, so verdicts and tables are identical across hit/miss and
    across [--jobs]. *)

val cert_of_der : string -> (Chaoschain_x509.Cert.t, string) result
(** Parse-or-share the certificate encoded by the whole input. Equivalent to
    [Cert.of_der] but returns the interned value when the bytes have been
    seen before. Parse failures are not cached. *)

val cert_of_sub :
  string -> off:int -> len:int -> (Chaoschain_x509.Cert.t, string) result
(** [cert_of_sub s ~off ~len] interns the certificate occupying the given
    window of [s]. On a cache hit no copy of the window is made (the hash
    and the equality check both walk [s] in place). Raises
    [Invalid_argument] if the range is out of bounds. *)

val set_enabled : bool -> unit
(** Globally enable/disable interning (default: enabled). When disabled the
    functions above parse unconditionally — the reference path that the
    intern on/off test and the bench's [pem/decode-chain(no-intern)] and
    [--smoke] cross-checks compare against. *)

val enabled : unit -> bool

type stats = { entries : int; lookups : int; hits : int }

val stats : unit -> stats
(** Aggregate counters across all shards. *)

val clear : unit -> unit
(** Drop all entries and reset counters (tests). *)
