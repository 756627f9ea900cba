(** The simulated ZGrab-style collection (section 3.1): two vantage points
    scan the population over TLS 1.2, each missing a small, partially
    overlapping fraction of domains (network noise); the analysis dataset is
    the union. Certificate messages travel through the real wire codec.

    The scan runs on the {!Pipeline}: domains are cut into the deterministic
    {!Shard} plan, each shard draws from its own label-derived PRNG stream,
    and a pool of [jobs] Domains drains the shards. The dataset is
    byte-identical for every [jobs] value. *)

open Chaoschain_x509

type vantage = { name : string; reached : int; unreachable : int }

type dataset = {
  vantages : vantage list;
  domains : (string * Cert.t list) array;  (** the union dataset *)
  chain_fps : string array;
      (** per-domain chain fingerprint (SHA-256 over the certificate
          fingerprints), aligned with [domains]; the dedup key downstream
          stages memoise on *)
  flags : int array;
      (** per-domain probe outcome bits ({!flag_us}, {!flag_au},
          {!flag_identical}), aligned with [domains] — enough to rebuild the
          vantage totals and the TLS 1.2/1.3 agreement statistic from a
          persisted corpus *)
  unique_chains : int;
  unique_certs : int;
  tls12_tls13_identical_pct : float;
      (** share of domains answering both versions with the same chain *)
}

val flag_us : int
(** The domain answered the US vantage. *)

val flag_au : int
(** The domain answered the AU vantage. *)

val flag_identical : int
(** TLS 1.2 and 1.3 served the same chain. *)

val chain_fingerprint : Cert.t list -> string
(** SHA-256 of the concatenated certificate fingerprints — the canonical
    chain identity used by the memo caches. *)

val dataset_of : (string * int * Cert.t list) array -> dataset
(** The one reduce from per-domain observations (domain, probe-outcome
    flags, served chain) to a dataset: vantage totals, chain fingerprints,
    dedup counts and the TLS 1.2/1.3 agreement share. {!scan} feeds it the
    probes it just made; [Corpus.load] feeds it persisted observation
    records, so a replayed dataset is the live one by construction. *)

val scan :
  ?jobs:int -> ?format:Chaoschain_tlssim.Certmsg.format -> Population.t ->
  dataset
(** Deterministic per population, for any [jobs] (default 1 = sequential).
    Every served chain is encoded into a TLS Certificate message under BOTH
    wire formats and re-parsed; the two decodes are cross-checked
    certificate-for-certificate and [format] (default [Tls12]) selects which
    parse populates the dataset — so the dataset contains exactly what the
    wire carried, identically for either framing. *)
