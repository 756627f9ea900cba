(** The synthetic Tranco Top-1M population.

    [generate] expands the calibration ledger into concrete domains: each
    domain gets a CA (per Table 11 weights), an HTTP-server fingerprint (per
    Table 10 weights), a deployment scenario and — mechanically realised from
    those — the certificate list its server sends. An orthogonal "blemish"
    dimension reproduces the real-world fact that structurally broken sites
    are often also operationally broken (expired leaves), which drives the
    section 5.2 pass-rate gaps. *)

open Chaoschain_x509
open Chaoschain_core
open Chaoschain_pki

type blemish = Pristine | Expired_leaf

type record = {
  rank : int;
  domain : string;
  vendor : Calibration.vendor_key;
  universe_vendor : Universe.vendor;
  software : Calibration.server_key;
  scenario : Calibration.scenario;
  blemish : blemish;
  chain : Cert.t list;
}

type t = {
  universe : Universe.t;
  scale : float;
  domains : record array;
  firefox_cache : Cert.t list;
  os_store : Cert.t list;
}

val generate : ?seed:int64 -> ?scale:float -> unit -> t
(** [scale] defaults to 0.05 (45,317 domains); 1.0 is the paper's full
    population. Deterministic in [seed]. *)

val size : t -> int

val env : t -> Difftest.env
(** The differential-testing environment backed by this population's
    universe, cache and OS store. *)

val compliance_report : t -> record -> Compliance.report
(** Run the server-side compliance analysis for one domain (union store,
    AIA enabled — the paper's baseline). *)
