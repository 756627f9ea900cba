(** Persisting a measurement run as a chainstore corpus, and replaying it.

    [save] walks an analysis in dataset order and writes three kinds of
    content-addressed records: every certificate's DER exactly once
    (deduplicated by SHA-256 fingerprint), one observation record per domain
    (domain, probe-outcome flags, chain as a fingerprint list), and the full
    trust environment — the four program root stores plus their union, the
    AIA repository including injected failures, the Firefox intermediate
    cache, the Windows OS store and the measurement timestamp — so that
    [load] can rebuild a {!Difftest.env} without regenerating the synthetic
    population. Certificates are re-decoded through {!Intern}, so a replay
    deduplicates parses exactly like the live decode path.

    [load] rebuilds the dataset with {!Scanner.dataset_of}, the reducer the
    live scan uses, and [analyze] classifies it with
    {!Experiments.view_of}, the live scan's classification pass: rendered
    through {!Experiments.scan_results} the replay is byte-identical to the
    direct scan, for any [jobs]. *)

open Chaoschain_core
open Chaoschain_pki
module Store = Chaoschain_store.Store

type summary = { s_records : int; s_certs : int; s_root_hex : string }

val save : dir:string -> Experiments.analysis -> summary
(** Write the corpus under [dir] (created if needed, truncating any previous
    store there). Deterministic: byte-identical output for any [jobs] the
    analysis ran with. *)

type loaded = {
  l_dataset : Scanner.dataset;
      (** {!Scanner.dataset_of} over the observation records *)
  l_env : Difftest.env;
  l_union_store : Root_store.t;
  l_scale : float;  (** population scale recorded at save time *)
  l_records : int;
  l_certs : int;
  l_root_hex : string;  (** the verified Merkle root *)
}

val load : ?jobs:int -> ?use_index:bool -> string -> (loaded, string) result
(** Strict open + decode; any integrity or format problem is an [Error].
    With [jobs > 1] the store open (CRC verification, index probing, leaf
    hashing, Merkle construction) fans out over a transient Domain pool;
    [use_index:false] forces the sequential segment scan. The decoded
    result is identical for any [jobs] and either index setting. *)

val referenced_fps : Store.t -> (string, unit) Hashtbl.t
(** Every certificate fingerprint the observation and environment records
    reference — the liveness set for {!Store.compact}. Light payload walk
    only (no certificate decoding); raises {!Frame.Wire.Short} on a
    malformed record, which a strictly opened store never has. *)

val analyze : ?jobs:int -> loaded -> Experiments.view
(** {!Experiments.view_of} over the loaded dataset, environment and union
    root store, on [jobs] Domains (default 1). *)
