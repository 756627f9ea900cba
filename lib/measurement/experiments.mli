(** The reproduction suite: one entry per table and figure of the paper, each
    rendering the measured result next to the paper's reported value.

    [analyze] runs the server-side compliance pipeline once over a generated
    population; individual experiments reuse that shared analysis. {!suite}
    is the one experiment list: [run_all] maps it, and [bench/main.exe]
    times each entry of it. *)

open Chaoschain_x509
open Chaoschain_core

type view = {
  v_dataset : Scanner.dataset;
  v_env : Difftest.env;
  v_items : (string * Cert.t list * Compliance.report) array;
      (** one (domain, served chain, report) per domain, in dataset order *)
  v_jobs : int;  (** Domain-pool size the downstream experiments reuse *)
  v_memo : Difftest.case Pipeline.Memo.t;
      (** view-wide cache: each unique chain is diff-tested once *)
}
(** The slice of an analysis that a persisted corpus can reproduce: served
    chains, compliance reports and the trust environment — no synthetic
    population labels. The live scan and the replay ([Corpus.analyze]) both
    build one with {!view_of}, and {!scan_results} renders both through the
    same code, which is what makes replayed tables byte-identical. *)

val view_of :
  jobs:int -> store:Chaoschain_pki.Root_store.t -> Difftest.env ->
  Scanner.dataset -> view
(** The one classification pass: each unique chain of the dataset — keyed by
    its [chain_fps] entry — is classified once against [store] and the
    environment's AIA repository on a pool of [jobs] Domains, and the cached
    chain report is fanned back out to every domain serving it. The result
    is byte-identical for every [jobs] value. *)

type analysis = {
  pop : Population.t;
  reports : (Population.record * Compliance.report) array;
      (** each population record with its report, in dataset order *)
  view : view;  (** the scanned dataset, its classification and env *)
}

val analyze :
  ?jobs:int -> ?format:Chaoschain_tlssim.Certmsg.format -> Population.t ->
  analysis
(** {!Scanner.scan} the population, then {!view_of} the scanned dataset: the
    chains classified are exactly the ones the scan decoded off the wire, as
    on replay. The corpus is sharded deterministically, a pool of [jobs]
    Domains (default 1 = sequential) drains the shards, and the result is
    byte-identical for every [jobs] value (and for either wire [format] the
    scan parses the dataset from). *)

val view : analysis -> view

type result = Chaoschain_report.Report.t = {
  id : string;  (** e.g. ["table3"] *)
  title : string;
  blocks : Chaoschain_report.Report.block list;
      (** the typed document; render with [Report.to_text] (ASCII, what the
          sprintf bodies used to be), [to_json] or [to_markdown] *)
}

val table1 : unit -> result
val table2 : unit -> result
val table3 : analysis -> result
val table4 : unit -> result
val table5 : analysis -> result
val table6 : analysis -> result
val table7 : analysis -> result
val table8 : analysis -> result
val table9 : unit -> result
val table10 : analysis -> result
val table11 : analysis -> result
val figure1 : analysis -> result
val figure2 : analysis -> result
val figure3 : analysis -> result
val figure4 : analysis -> result
val figure5 : analysis -> result
val section5_2 : analysis -> result

val section6 : analysis -> result
(** Section 6 made executable: remediation advice, the capability-ablation
    ladder behind the section 6.2 claim, and the issuer-tie statistics. *)

val dataset_overview : analysis -> result
(** The section 3.1 collection statistics (vantage totals, unique chains and
    certificates, TLS 1.2/1.3 agreement). *)

val table_results : view -> result list
(** The cheap store-reproducible subset (no differential testing): dataset
    overview and tables 3, 5 and 7. [chaoscheck diff] and the chaind
    [experiments] stats block use this. *)

val scan_results : view -> result list
(** The store-reproducible subset, in paper order: dataset overview, tables
    3, 5 and 7, and section 5.2. [chaoscheck scan] and [chaoscheck replay]
    both print exactly this list. *)

val suite : (analysis -> result) list
(** Every experiment, in paper order. *)

val run_all : analysis -> result list
(** [List.map (fun f -> f a) suite]. *)
