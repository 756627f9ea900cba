(** The nine chain-construction capability tests of Table 2, and the
    black-box evaluation that infers a client's Table 9 row.

    Each test mints a self-contained laboratory PKI, serves a crafted
    certificate list, and infers the capability or priority preference from
    the path the client constructs (not from its configuration — the client
    profile is exercised exactly as a real implementation would be). *)

open Chaoschain_x509
open Chaoschain_pki

type test_id =
  | Order_reorganization
  | Redundancy_elimination
  | Aia_completion
  | Validity_priority
  | Kid_priority
  | Keyusage_priority
  | Basic_constraints_priority
  | Path_length_constraint
  | Self_signed_leaf

val all_tests : test_id list
val test_name : test_id -> string
val test_case_notation : test_id -> string
(** The formal description column of Table 2, e.g. ["{E, I2, I1, R}"]. *)

type fixture = {
  host : string;
  served : Cert.t list;
  store : Root_store.t;
  aia : Aia_repo.t;
  cache : Cert.t list;
  now : Vtime.t;
  labelled : (string * Cert.t) list;
      (** name -> certificate, for identifying which candidate was chosen *)
}

val fixture : test_id -> fixture
(** Deterministic: the same test always produces bit-identical PKI. For
    {!Path_length_constraint} this is the depth-40 instance; use
    {!length_fixture} for other depths. *)

val length_fixture : int -> fixture
(** [length_fixture n]: the ordered complete chain with [n] intermediates. *)

val run_client : Clients.t -> fixture -> Engine.outcome

val evaluate : Clients.t -> test_id -> string
(** The Table 9 cell for this client and test: ["yes"]/["no"] for basic
    capabilities and the self-signed-leaf restriction, ["VP1"]/["VP2"]/["-"],
    ["KP1"]/["KP2"]/["-"], ["KUP"]/["-"], ["BP"]/["-"], and ["=N"]/[">52"]
    for the length limit. *)

val table9_expected : Clients.id -> test_id -> string
(** The cell the paper reports, for regression-testing the profiles. *)

(** {1 Table 1 — comparison with BetterTLS} *)

type coverage = { capability : string; better_tls : bool; this_work : bool }

val betterlts_comparison : coverage list
