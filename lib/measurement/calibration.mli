(** The quota ledger that calibrates the synthetic Tranco population to the
    paper's measured distributions.

    Every deployment scenario the paper reports corresponds to a class here,
    with its full-scale (906,336-domain) count. The counts satisfy, by
    construction, every aggregate the paper states: Tables 3, 5, 7, 8, 10 and
    11, the 26,361-domain non-compliance total and its 64.3% / 45.9%
    order/completeness split, and the figure case studies (which are planted
    as singleton classes). DESIGN.md section 2 documents the derivations,
    including the inclusion-exclusion overlaps (665 duplicate-and-irrelevant
    chains, 201 reversed multi-path chains, 2,678 reversed-and-incomplete
    chains). The population generator realises each class mechanically via
    the CA-delivery and administrator models. *)

type restricted_kind =
  | R_mc_recoverable   (** root absent from Mozilla/Chrome; AIA present *)
  | R_mc_dead_end      (** root absent from Mozilla/Chrome; no AIA *)
  | R_ms_recoverable
  | R_ms_dead_end
  | R_apple_recoverable
  | R_apple_dead_end

type scenario =
  (* Structurally compliant deployments. *)
  | Ok_plain                    (** leaf + intermediates, root omitted *)
  | Ok_with_root
  | Ok_leaf_mismatched          (** compliant chain for the wrong name *)
  | Ok_leaf_other               (** self-signed test certificate (Plesk, ...) *)
  | Leaf_incorrect_placed       (** the single mot.gov.ps-style chain *)
  | Ok_no_akid                  (** terminating intermediate without AKID —
                                    the Table 8 no-AIA sensitivity group *)
  | Ok_restricted of restricted_kind
  (* Issuance-order violations (Table 5). *)
  | Dup_leaf_front              (** leaf appears twice at the front *)
  | Dup_leaf_scattered
  | Dup_intermediate of int     (** intermediate block pasted [n] extra times *)
  | Dup_root
  | Dup_leaf_and_intermediate
  | Dup_and_irrelevant          (** duplicate leaf + a foreign certificate *)
  | Irr_self_signed_extra       (** self-signed leaf + an unrelated public root *)
  | Irr_root_attached           (** normal chain + an unrelated root *)
  | Irr_stale_leaves of int     (** [n] expired previous leaves (webcanny) *)
  | Irr_extra_leaf_distinct     (** an unrelated second leaf *)
  | Irr_foreign_chain           (** (part of) another site's chain appended *)
  | Irr_lone_intermediate
  | Multi_cross_ok              (** cross-sign pair, compliant insertion *)
  | Multi_cross_expired         (** the cross-signed variant has expired *)
  | Multi_cross_reversed        (** cross inserted before its alternative *)
  | Multi_validity_variants     (** same subject+issuer, differing validity *)
  | Rev_merge_1int              (** \[E; root; I1\] — structure 1->2->0 *)
  | Rev_noroot_2int             (** \[E; I2; I1\] — structure 1->2->0 *)
  | Rev_merge_2int              (** \[E; root; I2; I1\] — structure 1->2->3->0 *)
  | Rev_full_deep               (** other reversed structures *)
  | Rev_and_incomplete          (** reversed and missing two intermediates *)
  (* Completeness violations (Table 7). *)
  | Inc_missing1                (** recoverable, one certificate short *)
  | Inc_missing2
  | Inc_no_aia
  | Inc_aia_fail
  | Inc_wrong_aia               (** the CAcert self-reference *)
  (* Planted figure case studies. *)
  | Fig_serpro                  (** Figure 3: 17 certificates, GnuTLS limit *)
  | Fig_ns3                     (** 29-certificate duplicate towers *)
  | Fig_moex                    (** Figure 4: backtracking scenario *)

val scenario_to_string : scenario -> string

val ledger : (scenario * int) list
(** Full-scale class sizes; sums to 906,336. *)

val full_population : int

val scale_ledger : float -> (scenario * int) list
(** Scale every class, keeping singleton case studies alive (count >= 1 for
    any class that is non-zero at full scale) and preserving tiny classes'
    proportions via largest-remainder rounding of the rest. *)

(** {1 Attribution weights} *)

type vendor_key =
  | V_lets_encrypt | V_digicert | V_sectigo | V_zerossl | V_gogetssl
  | V_taiwan_ca | V_cyber_folks | V_trustico | V_other

val vendor_key_to_string : vendor_key -> string

val vendor_weights : scenario -> (vendor_key * int) list
(** How a class's chains distribute over CAs, from the matching Table 11
    row, restricted to vendors structurally able to produce the class. *)

type server_key =
  | S_apache | S_nginx | S_azure | S_cloudflare | S_iis | S_aws_elb | S_other
  | S_unfingerprinted

val server_key_to_string : server_key -> string

val server_weights : scenario -> (server_key * int) list
(** How a class's chains distribute over HTTP servers, from the matching
    Table 10 row; the unfingerprinted share is the gap between Table 5/7
    totals and Table 10 row totals. *)
