(** The synthetic Web-PKI world.

    One [Universe.t] holds every CA hierarchy the experiments need: the eight
    CAs/resellers of Table 11 (with realistic shapes: Let's Encrypt's short
    chain, Sectigo's USERTrust cross-sign behind Figure 2c, TAIWAN-CA's
    omitted "TWCA Global Root CA" intermediate, DigiCert's re-issued
    intermediate pair of Figure 5), a pool of generic CAs for the unattributed
    half of the population, special-purpose hierarchies for the Table 8
    root-store experiments, the CAcert-style self-referential AIA corner case,
    and an untrusted government root for the Figure 4 backtracking scenario.

    All intermediates and roots are published in the {!Aia_repo}; the four
    root-program stores are built with controlled membership differences. *)

open Chaoschain_x509
module Prng = Chaoschain_crypto.Prng

type vendor =
  | Lets_encrypt
  | Digicert
  | Sectigo
  | Zerossl
  | Gogetssl
  | Taiwan_ca
  | Cyber_folks
  | Trustico
  | Other_ca of int  (** one of the generic CA hierarchies, by index *)

val vendor_to_string : vendor -> string
val named_vendors : vendor list
(** The eight vendors of Table 11, in the paper's column order. *)

val other_ca_count : int
(** How many generic hierarchies exist; [Other_ca i] needs [i] below this. *)

type hierarchy = {
  issuing : Issue.signer;        (** the intermediate that signs leaves *)
  above : Cert.t list;           (** certificates above the issuing CA, in
                                     issuance order towards the root; the last
                                     element is the self-signed root *)
  issuing_aia_uri : string;      (** where the issuing CA's cert is published *)
}

type t

val create : ?seed:int64 -> unit -> t

val aia : t -> Aia_repo.t
val store : t -> Root_store.program -> Root_store.t
val union_store : t -> Root_store.t
val rng : t -> Prng.t
val now : t -> Vtime.t
(** The simulation's idea of "today" (certificate validity is judged against
    this instant everywhere). *)

val hierarchy : t -> vendor -> hierarchy
(** The vendor's standard hierarchy. *)

val hierarchy_deep : t -> vendor -> hierarchy
(** A two-intermediate hierarchy under the vendor's root (root -> G2 ->
    issuing), created lazily and cached. Reversed-sequence scenarios need at
    least two intermediates to exhibit the paper's 1->2->0 structure. *)

val hierarchy_deep4 : t -> vendor -> hierarchy
(** A four-intermediate hierarchy (for chains missing two certificates that
    are still AIA-recoverable). *)

val hierarchy_no_akid : t -> vendor -> hierarchy
(** A parallel hierarchy under the same root whose issuing intermediate omits
    its AKID — the mechanism behind the large no-AIA effect of Table 8 (store
    matching by AKID/SKID cannot succeed; only an AIA fetch of the root
    confirms completeness). Available for {!Lets_encrypt}, {!Digicert},
    {!Sectigo} and the generic CAs; other vendors fall back to their standard
    hierarchy. *)

val cross_pair : t -> vendor -> (Cert.t * Cert.t) option
(** [(self, cross)] for vendors whose issuing-CA parent is also cross-signed
    by a legacy store root — the raw material of multiple-path chains.
    Available for Let's Encrypt, DigiCert, the Sectigo family and
    [Other_ca 0]. *)

val mint_leaf :
  t -> vendor -> domain:string ->
  ?hierarchy:hierarchy ->
  ?faults:Issue.fault list ->
  ?no_aia:bool ->
  ?not_before:Vtime.t -> ?not_after:Vtime.t ->
  unit -> Issue.signer
(** Issue a leaf for [domain] (CN and SAN dNSName) from the vendor's issuing
    CA. By default the leaf carries a caIssuers URI pointing at its issuer's
    published location; [no_aia] suppresses it (the 579 "AIA missing" chains),
    and the [Issue.fault] list flows through for broken test leaves. *)

(** {1 Named special constructs used by experiments and figures} *)

val sectigo_usertrust_self : t -> Cert.t
(** "USERTrust RSA Certification Authority", self-signed (node 3 in
    Figure 2c). *)

val sectigo_usertrust_cross : t -> Cert.t
(** The same subject and key cross-signed by the legacy "AAA Certificate
    Services" root (node 2 in Figure 2c). *)

val sectigo_usertrust_cross_expired : t -> Cert.t
(** An expired cross-sign, for the 29 expired-cross-sign chains. *)

val digicert_ca1_recent : t -> Cert.t
(** Figure 5 candidate A: the more recently issued "DigiCert TLS RSA SHA256
    2020 CA1". *)

val digicert_ca1_old : t -> Cert.t
(** Figure 5 candidate B: same subject and key, earlier validity. *)

val taiwan_global : t -> Issue.signer
(** "TWCA Global Root CA", the intermediate TAIWAN-CA deployments omit. *)

val epki_hierarchy : t -> hierarchy
(** "ePKI Root Certification Authority" chain used by the Figure 2d
    (archives.gov.tw-like) scenario. *)

val gov_hidden_root : t -> Issue.signer
(** A self-signed government root present in no store (node 1 of Figure 4). *)

val gov_grca_hierarchy : t -> hierarchy
(** The trusted government hierarchy that also signs the Figure 4
    intermediate, enabling the correct path 3. *)

val gov_moex_intermediate : t -> Issue.signer
(** The intermediate of Figure 4, reachable both from the hidden root and
    from the trusted hierarchy (via cross-signs). *)

val gov_moex_cross_by_hidden : t -> Cert.t
(** Cross-sign of the Figure 4 intermediate key by the hidden root. *)

val cacert_class3 : t -> Cert.t
(** A "CAcert Class 3" style intermediate whose AIA URI serves the
    certificate itself — the single wrong-AIA chain of section 4.3. *)

val cacert_leaf_signer : t -> Issue.signer
(** Signer backing {!cacert_class3}, to mint the leaf below it. *)

(** {1 Restricted-store hierarchies (Table 8)} *)

type restricted = {
  r_hierarchy : hierarchy;     (** issuing intermediate chained to the
                                    restricted root *)
  r_root : Cert.t;
  r_missing_from : Root_store.program list;  (** stores lacking this root *)
  r_intermediate_has_aia : bool;
}

val restricted_mc_recoverable : t -> restricted
(** Root absent from Mozilla and Chrome; intermediate has AIA, so those
    clients recover completeness by fetching the root. *)

val restricted_mc_dead_end : t -> restricted
(** Root absent from Mozilla and Chrome and no AIA anywhere: the 66
    permanently-additional incomplete chains for those stores. *)

val restricted_ms_recoverable : t -> restricted
val restricted_ms_dead_end : t -> restricted
val restricted_apple_recoverable : t -> restricted
val restricted_apple_dead_end : t -> restricted

val broken_aia_uri_404 : t -> string
(** A URI that always returns 404, for the "URI access fails" chains. *)

val broken_aia_uri_timeout : t -> string
