(** Section 6 of the paper, made executable: remediation advice for a
    non-compliant deployment, prioritization advice for builders, and the
    capability ablation behind the claim that clients with reordering, AIA
    completion and backtracking validate significantly more real chains. *)

open Chaoschain_x509
open Chaoschain_pki

(** {1 Server-side (section 6.1)} *)

type audience = For_ca | For_http_server | For_administrator

val audience_to_string : audience -> string

type advice = {
  audience : audience;
  severity : [ `Must | `Should ];
  text : string;
}

val server_advice : Compliance.report -> advice list
(** Concrete remediation steps for each violation the report contains (plus
    the standing automation advice when anything is wrong at all). Empty for
    a compliant deployment. *)

val corrected_chain : Compliance.report -> Cert.t list option
(** A compliant re-serialisation of the deployment when one is derivable from
    the served certificates alone: the first valid path, leaf first, with the
    trust anchor kept if the server originally included a root. [None] when
    certificates are missing (completeness advice applies instead). *)

(** {1 Client-side (section 6.2)} *)

type ablation_step = {
  label : string;
  params : Build_params.t;
  accepted : int;
  total : int;
}

val capability_ablation :
  store:Root_store.t -> aia:Aia_repo.t -> now:Vtime.t ->
  (string * Cert.t list) list -> ablation_step list
(** Validate every (domain, chain) pair under a ladder of configurations —
    none of the three key capabilities, then +reordering, +AIA completion,
    +backtracking, and finally the full recommended profile — returning the
    acceptance count at each rung. This is the experiment behind the section
    6.2 claim. *)

(** {1 Prioritization statistics (section 6.2)} *)

type ambiguity_stats = {
  chains_with_ties : int;
      (** chains where some certificate has several candidate issuers with
          identical subject DN and matching KID *)
  tie_with_trusted_root : int;
      (** ties where one candidate is a trusted self-signed root — prefer it *)
  tie_validity_variants : int;
      (** ties between intermediates differing only in validity — prefer the
          most recently issued *)
}

val ambiguity_statistics :
  store:Root_store.t -> (string * Cert.t list) list -> ambiguity_stats
(** The paper's 785 / 744 / 42 analysis over a chain corpus. *)
