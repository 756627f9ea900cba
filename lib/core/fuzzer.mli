(** Frankencert-style differential fuzzing of chain construction.

    Brubaker et al.'s frankencerts mutated certificate *contents*; the
    paper's subject is the chain *structure*, so this fuzzer mutates served
    certificate lists — dropping, duplicating, swapping, reversing and
    contaminating them — and reports inputs on which the client models
    disagree. It is both a test amplifier for this repository and a
    demonstration of the kind of tooling the paper's findings motivate. *)

open Chaoschain_x509

type mutation =
  | Drop of int            (** remove the certificate at this position *)
  | Duplicate of int       (** repeat the certificate at this position *)
  | Swap of int * int
  | Reverse_tail           (** reverse everything after the leaf *)
  | Rotate_tail            (** rotate the non-leaf part by one *)
  | Inject_unrelated of int(** insert a foreign certificate at a position *)
  | Truncate of int        (** keep only the first n certificates *)

val mutation_to_string : mutation -> string

val apply : pool:Cert.t list -> Cert.t list -> mutation -> Cert.t list
(** Apply one mutation ([pool] supplies foreign certificates for
    {!Inject_unrelated}). Out-of-range positions leave the list unchanged. *)

type verdicts = (Clients.id * bool) list
(** Accept/reject per client. *)

type divergence = {
  domain : string;
  seed_chain : Cert.t list;
  mutations : mutation list;
  mutated_chain : Cert.t list;
  verdicts : verdicts;
}

type report = {
  iterations : int;
  divergences : divergence list;
      (** inputs on which at least two clients disagreed *)
  crashes : (mutation list * string) list;
      (** mutations that raised an exception anywhere in the pipeline —
          always a bug in this repository, never expected *)
}

val run :
  env:Difftest.env ->
  rng:Chaoschain_crypto.Prng.t ->
  ?clients:Clients.t list ->
  ?max_mutations:int ->
  iterations:int ->
  (string * Cert.t list) list ->
  report
(** Fuzz: per iteration, pick a seed (domain, chain), apply 1..[max_mutations]
    (default 3) random mutations, validate in every client (default: all
    eight), and record divergences. Foreign certificates for injection are
    drawn from the other seeds. Deterministic in [rng]. *)

val pp_divergence : Format.formatter -> divergence -> unit
