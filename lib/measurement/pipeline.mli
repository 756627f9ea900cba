(** The Domain-parallel, deduplicating measurement pipeline.

    Work is cut into the deterministic {!Shard} plan and drained by a
    fixed-size pool of OCaml 5 Domains ([jobs] workers). Results are merged in
    shard order, so for every [jobs >= 1] the output is byte-identical to the
    purely sequential path taken when [jobs = 1]. Per-shard randomness must be
    derived from [Prng.of_label (Shard.label ...)] — never from a shared
    mutable generator — which is what makes the contract hold.

    The {!Memo} cache deduplicates expensive per-chain work (compliance
    classification, differential testing) across the many domains that serve
    an identical chain; it is safe to share one cache between all workers. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the whole machine. *)

(** A reusable worker-Domain pool. The offline maps below create a transient
    pool per call; a long-lived consumer (the chaind query service) creates
    one pool at startup and pushes successive micro-batches through {!Pool.run}
    without paying a Domain spawn/join per batch. *)
module Pool : sig
  type t

  val create : jobs:int -> t
  (** Spawns [jobs - 1] worker Domains ([jobs] is clamped to [>= 1]); the
      calling Domain participates in every {!run}. *)

  val jobs : t -> int

  val run : t -> int -> (int -> unit) -> unit
  (** [run t n task] executes [task 0 .. task (n-1)], drained from a shared
      atomic counter by all workers plus the caller; returns when every task
      has finished. [jobs = 1] (or [n = 1]) runs sequentially on the caller.
      A task exception is captured (the remaining tasks of the batch still
      run) and re-raised here. Not reentrant: one [run] at a time. *)

  val shutdown : t -> unit
  (** Joins the workers. The pool must not be used afterwards. *)
end

val with_par : jobs:int -> (Chaoschain_store.Par.t -> 'a) -> 'a
(** [with_par ~jobs f] hands [f] a {!Chaoschain_store.Par.t} runner: the
    sequential one for [jobs <= 1], otherwise {!Pool.run} on a transient
    pool of [jobs] Domains that is shut down when [f] returns or raises.
    The chainstore's open, compaction and fuzzing take their parallelism
    through it. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]. [jobs] defaults to 1; any value
    [<= 1] takes the sequential code path ([Array.map] itself). The function
    must be safe to call from multiple Domains (pure, or synchronised). *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map} with the global element index. *)

val map_shards :
  ?jobs:int -> (shard:int -> 'a array -> 'b array) -> 'a array -> 'b array
(** Shard-at-a-time variant: the callback receives the shard index (for PRNG
    derivation via [Shard.label]) and one slice of the input, and must return
    exactly one output per input element. Results are merged in shard order.
    With [jobs <= 1] the shards run sequentially, in index order, on the
    calling Domain — same shards, same labels, same output. *)

(** Memoisation cache keyed by chain fingerprint, shared across workers. *)
module Memo : sig
  type 'a t

  val create : unit -> 'a t

  val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key f] returns the cached value for [key], computing it
      with [f] on a miss. Two workers racing on the same key may both run [f];
      deterministic [f] makes that harmless (first insert wins). [f] runs
      outside the cache lock, so it may itself take locks. *)

  val size : 'a t -> int
  (** Distinct keys cached so far. *)

  val hits : 'a t -> int
  (** Lookups answered from the cache (the dedup win). *)
end
