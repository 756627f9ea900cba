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
  | Other_ca of int

let vendor_to_string = function
  | Lets_encrypt -> "Let's Encrypt"
  | Digicert -> "DigiCert"
  | Sectigo -> "Sectigo Limited"
  | Zerossl -> "ZeroSSL"
  | Gogetssl -> "GoGetSSL"
  | Taiwan_ca -> "TAIWAN-CA"
  | Cyber_folks -> "cyber_Folks S.A."
  | Trustico -> "Trustico"
  | Other_ca i -> Printf.sprintf "Other CA %d" i

let named_vendors =
  [ Lets_encrypt; Digicert; Sectigo; Zerossl; Gogetssl; Taiwan_ca; Cyber_folks; Trustico ]

let other_ca_count = 8

type hierarchy = {
  issuing : Issue.signer;
  above : Cert.t list;
  issuing_aia_uri : string;
}

type restricted = {
  r_hierarchy : hierarchy;
  r_root : Cert.t;
  r_missing_from : Root_store.program list;
  r_intermediate_has_aia : bool;
}

type t = {
  rng : Prng.t;
  aia : Aia_repo.t;
  now : Vtime.t;
  mutable stores : (Root_store.program * Root_store.t) list;
  mutable union : Root_store.t;
  hierarchies : (vendor, hierarchy) Hashtbl.t;
  no_akid_hierarchies : (vendor, hierarchy) Hashtbl.t;
  deep_hierarchies : (vendor * int, hierarchy) Hashtbl.t;
  root_signers : (vendor, Issue.signer) Hashtbl.t;
  crosses : (vendor, Cert.t * Cert.t) Hashtbl.t;
  (* vendor -> (self-signed parent of the issuing CA, cross-signed variant of
     the same subject/key under a legacy root). *)
  mutable legacy_roots : Cert.t list;
  (* Named special constructs. *)
  mutable sectigo_usertrust_self_ : Cert.t option;
  mutable sectigo_usertrust_cross_ : Cert.t option;
  mutable sectigo_usertrust_cross_expired_ : Cert.t option;
  mutable digicert_ca1_recent_ : Cert.t option;
  mutable digicert_ca1_old_ : Cert.t option;
  mutable taiwan_global_ : Issue.signer option;
  mutable epki_ : hierarchy option;
  mutable gov_hidden_root_ : Issue.signer option;
  mutable gov_grca_ : hierarchy option;
  mutable gov_moex_intermediate_ : Issue.signer option;
  mutable gov_moex_cross_by_hidden_ : Cert.t option;
  mutable cacert_class3_ : Cert.t option;
  mutable cacert_leaf_signer_ : Issue.signer option;
  mutable restricted_ : (string * restricted) list;
}

let aia t = t.aia
let rng t = t.rng
let now t = t.now
let union_store t = t.union
let store t program = List.assoc program t.stores

let get name = function
  | Some v -> v
  | None -> invalid_arg ("Universe: " ^ name ^ " not initialised")

let aia_uri ~host ~file = Printf.sprintf "http://%s/%s.crt" host file

(* Long-lived CA validity windows relative to the simulated "now". *)
let ca_validity ~now ~age_years ~life_years =
  (Vtime.add_years now (-age_years), Vtime.add_years now (life_years - age_years))

let root_spec ~now ~cn ~o ?(age = 10) ?(life = 25) () =
  Issue.spec ~is_ca:true
    ~not_before:(fst (ca_validity ~now ~age_years:age ~life_years:life))
    ~not_after:(snd (ca_validity ~now ~age_years:age ~life_years:life))
    (Dn.make ~c:"US" ~o ~cn ())

let intermediate_spec ~now ~cn ~o ?(age = 4) ?(life = 12) ?path_len ?aia ?(faults = []) () =
  Issue.spec ~is_ca:true ?path_len
    ~not_before:(fst (ca_validity ~now ~age_years:age ~life_years:life))
    ~not_after:(snd (ca_validity ~now ~age_years:age ~life_years:life))
    ~aia_ca_issuers:(match aia with None -> [] | Some uri -> [ uri ])
    ~faults
    (Dn.make ~c:"US" ~o ~cn ())

(* Build a standard two-level hierarchy (root -> issuing intermediate),
   publish both certificates in the AIA repository, and return it. *)
let build_hierarchy t ~host ~root_cn ~root_o ~inter_cn ~inter_o ?(inter_faults = []) () =
  let root_uri = aia_uri ~host ~file:"root" in
  let inter_uri = aia_uri ~host ~file:"issuing" in
  let root = Issue.self_signed t.rng (root_spec ~now:t.now ~cn:root_cn ~o:root_o ()) in
  let issuing =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:inter_cn ~o:inter_o ~path_len:0 ~aia:root_uri
         ~faults:inter_faults ())
  in
  Aia_repo.publish t.aia ~uri:root_uri root.Issue.cert;
  Aia_repo.publish t.aia ~uri:inter_uri issuing.Issue.cert;
  (root, { issuing; above = [ root.Issue.cert ]; issuing_aia_uri = inter_uri })

let setup_lets_encrypt t =
  let root, h =
    build_hierarchy t ~host:"x1.i.lencr.sim" ~root_cn:"ISRG Root X1"
      ~root_o:"Internet Security Research Group" ~inter_cn:"R3"
      ~inter_o:"Let's Encrypt" ()
  in
  Hashtbl.replace t.hierarchies Lets_encrypt h;
  (* Parallel no-AKID issuing CA under the same root (Table 8 mechanism). *)
  let issuing_uri = aia_uri ~host:"x1.i.lencr.sim" ~file:"r4-legacy" in
  let issuing =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:"R4" ~o:"Let's Encrypt" ~path_len:0
         ~aia:(aia_uri ~host:"x1.i.lencr.sim" ~file:"root")
         ~faults:[ Issue.No_akid ] ())
  in
  Aia_repo.publish t.aia ~uri:issuing_uri issuing.Issue.cert;
  Hashtbl.replace t.no_akid_hierarchies Lets_encrypt
    { issuing; above = [ root.Issue.cert ]; issuing_aia_uri = issuing_uri };
  root

let setup_digicert t =
  let host = "cacerts.digicert.sim" in
  let root_uri = aia_uri ~host ~file:"DigiCertGlobalRootCA" in
  let root =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"DigiCert Global Root CA" ~o:"DigiCert Inc" ())
  in
  Aia_repo.publish t.aia ~uri:root_uri root.Issue.cert;
  (* The Figure 5 pair: same subject, same key, two validity windows. *)
  let old_nb = Vtime.make ~y:2020 ~m:9 ~d:24 () in
  let old_na = Vtime.make ~y:2030 ~m:9 ~d:23 ~hh:23 ~mm:59 ~ss:59 () in
  let recent_nb = Vtime.make ~y:2021 ~m:4 ~d:14 () in
  let recent_na = Vtime.make ~y:2031 ~m:4 ~d:13 ~hh:23 ~mm:59 ~ss:59 () in
  let ca1_uri = aia_uri ~host ~file:"DigiCertTLSRSASHA2562020CA1" in
  let ca1_old_signer =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:"DigiCert TLS RSA SHA256 2020 CA1"
         ~o:"DigiCert Inc" ~path_len:0 ~aia:root_uri ())
  in
  let ca1_old_signer =
    { ca1_old_signer with
      Issue.cert =
        Issue.reissue t.rng ~parent:root ~existing:ca1_old_signer ~not_before:old_nb
          ~not_after:old_na }
  in
  let ca1_recent =
    Issue.reissue t.rng ~parent:root ~existing:ca1_old_signer ~not_before:recent_nb
      ~not_after:recent_na
  in
  let signer = { ca1_old_signer with Issue.cert = ca1_recent } in
  Aia_repo.publish t.aia ~uri:ca1_uri ca1_recent;
  t.digicert_ca1_recent_ <- Some ca1_recent;
  t.digicert_ca1_old_ <- Some ca1_old_signer.Issue.cert;
  Hashtbl.replace t.hierarchies Digicert
    { issuing = signer; above = [ root.Issue.cert ]; issuing_aia_uri = ca1_uri };
  (* no-AKID variant. *)
  let legacy_uri = aia_uri ~host ~file:"DigiCertLegacyCA" in
  let legacy =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:"DigiCert Legacy TLS CA" ~o:"DigiCert Inc"
         ~path_len:0 ~aia:root_uri ~faults:[ Issue.No_akid ] ())
  in
  Aia_repo.publish t.aia ~uri:legacy_uri legacy.Issue.cert;
  Hashtbl.replace t.no_akid_hierarchies Digicert
    { issuing = legacy; above = [ root.Issue.cert ]; issuing_aia_uri = legacy_uri };
  root

(* Sectigo: the USERTrust cross-sign structure of Figure 2c. Two roots:
   the modern self-signed USERTrust root and the legacy "AAA Certificate
   Services" root that cross-signs the USERTrust key. *)
let setup_sectigo t =
  let host = "crt.sectigo.sim" in
  let usertrust_uri = aia_uri ~host ~file:"USERTrustRSACertificationAuthority" in
  let aaa_uri = aia_uri ~host ~file:"AAACertificateServices" in
  let usertrust =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"USERTrust RSA Certification Authority"
         ~o:"The USERTRUST Network" ())
  in
  let aaa =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"AAA Certificate Services" ~o:"Comodo CA Limited"
         ~age:20 ~life:30 ())
  in
  let cross =
    Issue.cross_sign t.rng ~parent:aaa ~existing:usertrust
      ~not_before:(Vtime.add_years t.now (-6))
      ~not_after:(Vtime.add_years t.now 4) ()
  in
  let cross_expired =
    Issue.cross_sign t.rng ~parent:aaa ~existing:usertrust
      ~not_before:(Vtime.add_years t.now (-12))
      ~not_after:(Vtime.add_years t.now (-2)) ()
  in
  let dv_uri = aia_uri ~host ~file:"SectigoRSADomainValidationSecureServerCA" in
  let dv =
    Issue.issue t.rng ~parent:usertrust
      (intermediate_spec ~now:t.now
         ~cn:"Sectigo RSA Domain Validation Secure Server CA" ~o:"Sectigo Limited"
         ~path_len:0 ~aia:usertrust_uri ())
  in
  Aia_repo.publish t.aia ~uri:usertrust_uri usertrust.Issue.cert;
  Aia_repo.publish t.aia ~uri:aaa_uri aaa.Issue.cert;
  Aia_repo.publish t.aia ~uri:dv_uri dv.Issue.cert;
  t.sectigo_usertrust_self_ <- Some usertrust.Issue.cert;
  t.sectigo_usertrust_cross_ <- Some cross;
  t.sectigo_usertrust_cross_expired_ <- Some cross_expired;
  Hashtbl.replace t.hierarchies Sectigo
    { issuing = dv; above = [ usertrust.Issue.cert ]; issuing_aia_uri = dv_uri };
  let nolegacy_uri = aia_uri ~host ~file:"SectigoLegacyDV" in
  let legacy_dv =
    Issue.issue t.rng ~parent:usertrust
      (intermediate_spec ~now:t.now ~cn:"Sectigo RSA DV Legacy CA" ~o:"Sectigo Limited"
         ~path_len:0 ~aia:usertrust_uri ~faults:[ Issue.No_akid ] ())
  in
  Aia_repo.publish t.aia ~uri:nolegacy_uri legacy_dv.Issue.cert;
  Hashtbl.replace t.no_akid_hierarchies Sectigo
    { issuing = legacy_dv; above = [ usertrust.Issue.cert ]; issuing_aia_uri = nolegacy_uri };
  (* ZeroSSL, GoGetSSL and Trustico chain under the USERTrust root, matching
     their real reseller structure. *)
  let sub ~cn ~o ~file vendor =
    let uri = aia_uri ~host ~file in
    let signer =
      Issue.issue t.rng ~parent:usertrust
        (intermediate_spec ~now:t.now ~cn ~o ~path_len:0 ~aia:usertrust_uri ())
    in
    Aia_repo.publish t.aia ~uri signer.Issue.cert;
    Hashtbl.replace t.hierarchies vendor
      { issuing = signer; above = [ usertrust.Issue.cert ]; issuing_aia_uri = uri }
  in
  sub ~cn:"ZeroSSL RSA Domain Secure Site CA" ~o:"ZeroSSL" ~file:"ZeroSSLRSADomainSecureSiteCA"
    Zerossl;
  sub ~cn:"GoGetSSL RSA DV CA" ~o:"GoGetSSL" ~file:"GoGetSSLRSADVCA" Gogetssl;
  sub ~cn:"Trustico RSA DV CA" ~o:"Trustico Group" ~file:"TrusticoRSADVCA" Trustico;
  (usertrust, aaa)

let setup_taiwan t =
  let host = "sslserver.twca.sim" in
  let root_uri = aia_uri ~host ~file:"TWCARootCertificationAuthority" in
  let root =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"TWCA Root Certification Authority" ~o:"TAIWAN-CA" ())
  in
  (* The intermediate TAIWAN-CA deployments habitually omit (appendix C).
     The AIA chain stays intact, so the omission is AIA-recoverable. *)
  let global_uri = aia_uri ~host ~file:"TWCAGlobalRootCA" in
  let global =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:"TWCA Global Root CA" ~o:"TAIWAN-CA"
         ~path_len:1 ~aia:root_uri ())
  in
  let secure_uri = aia_uri ~host ~file:"TWCASecureSSLCA" in
  let secure =
    Issue.issue t.rng ~parent:global
      (intermediate_spec ~now:t.now ~cn:"TWCA Secure SSL Certification Authority"
         ~o:"TAIWAN-CA" ~path_len:0 ~aia:global_uri ())
  in
  Aia_repo.publish t.aia ~uri:root_uri root.Issue.cert;
  Aia_repo.publish t.aia ~uri:global_uri global.Issue.cert;
  Aia_repo.publish t.aia ~uri:secure_uri secure.Issue.cert;
  t.taiwan_global_ <- Some global;
  Hashtbl.replace t.hierarchies Taiwan_ca
    { issuing = secure;
      above = [ global.Issue.cert; root.Issue.cert ];
      issuing_aia_uri = secure_uri };
  root

let setup_cyber_folks t =
  let root, h =
    build_hierarchy t ~host:"certs.cyberfolks.sim" ~root_cn:"Certum Trusted Network CA"
      ~root_o:"Unizeto Technologies S.A." ~inter_cn:"cyber_Folks DV CA"
      ~inter_o:"cyber_Folks S.A." ()
  in
  Hashtbl.replace t.hierarchies Cyber_folks h;
  root

let setup_epki t =
  let root, h =
    build_hierarchy t ~host:"eca.hinet.sim" ~root_cn:"ePKI Root Certification Authority"
      ~root_o:"Chunghwa Telecom Co., Ltd." ~inter_cn:"Public Certification Authority - G2"
      ~inter_o:"Chunghwa Telecom Co., Ltd." ()
  in
  t.epki_ <- Some h;
  root

(* The Figure 4 structure: an intermediate whose key is certified both by a
   hidden (untrusted) government root and, through a cross-sign, by a trusted
   hierarchy. *)
let setup_gov t =
  let host = "gca.nat.sim" in
  let hidden =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"Government Internal Root CA" ~o:"Executive Yuan" ())
  in
  let grca_uri = aia_uri ~host ~file:"GRCA" in
  let grca =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"Government Root Certification Authority" ~o:"Taiwan" ())
  in
  Aia_repo.publish t.aia ~uri:grca_uri grca.Issue.cert;
  let moex_uri = aia_uri ~host ~file:"MOEXCA" in
  let moex =
    Issue.issue t.rng ~parent:grca
      (intermediate_spec ~now:t.now ~cn:"MOEX Certification Authority" ~o:"Taiwan"
         ~path_len:0 ~aia:grca_uri ())
  in
  let moex_cross_by_hidden =
    Issue.cross_sign t.rng ~parent:hidden ~existing:moex ()
  in
  Aia_repo.publish t.aia ~uri:moex_uri moex.Issue.cert;
  t.gov_hidden_root_ <- Some hidden;
  t.gov_grca_ <-
    Some { issuing = moex; above = [ grca.Issue.cert ]; issuing_aia_uri = moex_uri };
  t.gov_moex_intermediate_ <- Some moex;
  t.gov_moex_cross_by_hidden_ <- Some moex_cross_by_hidden;
  grca

let setup_cacert t =
  let host = "www.cacert.sim" in
  let root =
    Issue.self_signed t.rng
      (root_spec ~now:t.now ~cn:"CA Cert Signing Authority" ~o:"Root CA" ())
  in
  let class3_uri = aia_uri ~host ~file:"class3" in
  let class3 =
    Issue.issue t.rng ~parent:root
      (intermediate_spec ~now:t.now ~cn:"CAcert Class 3 Root" ~o:"CAcert Inc."
         ~path_len:0 ~aia:class3_uri ())
  in
  (* The defining misconfiguration: the class3 AIA URI serves class3 itself,
     not its issuer. *)
  Aia_repo.publish t.aia ~uri:class3_uri class3.Issue.cert;
  t.cacert_class3_ <- Some class3.Issue.cert;
  t.cacert_leaf_signer_ <- Some class3;
  root

let setup_other_cas t =
  List.init other_ca_count (fun i ->
      let o = Printf.sprintf "TrustWeb %d" i in
      let root, h =
        build_hierarchy t
          ~host:(Printf.sprintf "aia.trustweb%d.sim" i)
          ~root_cn:(Printf.sprintf "TrustWeb Global Root %d" i)
          ~root_o:o
          ~inter_cn:(Printf.sprintf "TrustWeb DV CA %d" i)
          ~inter_o:o ()
      in
      Hashtbl.replace t.hierarchies (Other_ca i) h;
      (* Every generic CA also has a no-AKID sibling intermediate. *)
      let uri = aia_uri ~host:(Printf.sprintf "aia.trustweb%d.sim" i) ~file:"legacy" in
      let legacy =
        Issue.issue t.rng ~parent:root
          (intermediate_spec ~now:t.now ~cn:(Printf.sprintf "TrustWeb Legacy CA %d" i)
             ~o ~path_len:0
             ~aia:(aia_uri ~host:(Printf.sprintf "aia.trustweb%d.sim" i) ~file:"root")
             ~faults:[ Issue.No_akid ] ())
      in
      Aia_repo.publish t.aia ~uri legacy.Issue.cert;
      Hashtbl.replace t.no_akid_hierarchies (Other_ca i)
        { issuing = legacy; above = [ root.Issue.cert ]; issuing_aia_uri = uri };
      root)

let setup_restricted t =
  let build name ~missing ~with_aia =
    let host = Printf.sprintf "aia.%s.sim" name in
    let root_uri = aia_uri ~host ~file:"root" in
    let root =
      Issue.self_signed t.rng
        (root_spec ~now:t.now ~cn:(Printf.sprintf "Regional Root CA %s" name)
           ~o:"Regional Trust" ~age:15 ~life:30 ())
    in
    let inter_uri = aia_uri ~host ~file:"issuing" in
    let inter =
      Issue.issue t.rng ~parent:root
        (intermediate_spec ~now:t.now ~cn:(Printf.sprintf "Regional DV CA %s" name)
           ~o:"Regional Trust" ~path_len:0
           ?aia:(if with_aia then Some root_uri else None)
           ())
    in
    if with_aia then Aia_repo.publish t.aia ~uri:root_uri root.Issue.cert;
    Aia_repo.publish t.aia ~uri:inter_uri inter.Issue.cert;
    let r =
      { r_hierarchy =
          { issuing = inter; above = [ root.Issue.cert ]; issuing_aia_uri = inter_uri };
        r_root = root.Issue.cert;
        r_missing_from = missing;
        r_intermediate_has_aia = with_aia }
    in
    t.restricted_ <- (name, r) :: t.restricted_;
    (root.Issue.cert, missing)
  in
  [ build "mc-recoverable" ~missing:[ Root_store.Mozilla; Root_store.Chrome ] ~with_aia:true;
    build "mc-dead-end" ~missing:[ Root_store.Mozilla; Root_store.Chrome ] ~with_aia:false;
    build "ms-recoverable" ~missing:[ Root_store.Microsoft ] ~with_aia:true;
    build "ms-dead-end" ~missing:[ Root_store.Microsoft ] ~with_aia:false;
    build "apple-recoverable" ~missing:[ Root_store.Apple ] ~with_aia:true;
    build "apple-dead-end" ~missing:[ Root_store.Apple ] ~with_aia:false ]

let broken_aia_uri_404 _t = "http://aia.broken.sim/missing.crt"
let broken_aia_uri_timeout _t = "http://aia.dead.sim/hang.crt"

let create ?(seed = 833L) () =
  let rng = Prng.create seed in
  let t =
    { rng;
      aia = Aia_repo.create ();
      now = Vtime.make ~y:2024 ~m:3 ~d:15 ~hh:12 ();
      stores = [];
      union = Root_store.make "union" [];
      hierarchies = Hashtbl.create 16;
      no_akid_hierarchies = Hashtbl.create 16;
      deep_hierarchies = Hashtbl.create 16;
      root_signers = Hashtbl.create 16;
      crosses = Hashtbl.create 16;
      legacy_roots = [];
      sectigo_usertrust_self_ = None;
      sectigo_usertrust_cross_ = None;
      sectigo_usertrust_cross_expired_ = None;
      digicert_ca1_recent_ = None;
      digicert_ca1_old_ = None;
      taiwan_global_ = None;
      epki_ = None;
      gov_hidden_root_ = None;
      gov_grca_ = None;
      gov_moex_intermediate_ = None;
      gov_moex_cross_by_hidden_ = None;
      cacert_class3_ = None;
      cacert_leaf_signer_ = None;
      restricted_ = [] }
  in
  let le_root = setup_lets_encrypt t in
  let dc_root = setup_digicert t in
  let usertrust, aaa = setup_sectigo t in
  let tw_root = setup_taiwan t in
  let cf_root = setup_cyber_folks t in
  let epki_root = setup_epki t in
  let grca = setup_gov t in
  let _cacert_root = setup_cacert t in
  let other_roots = setup_other_cas t in
  let restricted = setup_restricted t in
  (* Cross-sign pairs behind the multiple-path scenarios: each vendor's
     issuing-CA parent exists both self-signed and cross-signed by a legacy
     root that is also in the stores. *)
  let add_cross vendor root legacy_cn =
    let legacy =
      Issue.self_signed t.rng
        (root_spec ~now:t.now ~cn:legacy_cn ~o:"Legacy Trust Services" ~age:20 ~life:28 ())
    in
    let cross =
      Issue.cross_sign t.rng ~parent:legacy ~existing:root
        ~not_before:(Vtime.add_years t.now (-5))
        ~not_after:(Vtime.add_years t.now 5) ()
    in
    t.legacy_roots <- legacy.Issue.cert :: t.legacy_roots;
    Hashtbl.replace t.crosses vendor (root.Issue.cert, cross)
  in
  add_cross Lets_encrypt le_root "DST Legacy Root X3";
  add_cross Digicert dc_root "Baltimore CyberTrust Legacy Root";
  add_cross (Other_ca 0) (List.hd other_roots) "TrustWeb Heritage Root";
  List.iter
    (fun v ->
      Hashtbl.replace t.crosses v
        (usertrust.Issue.cert,
         match t.sectigo_usertrust_cross_ with Some c -> c | None -> assert false))
    [ Sectigo; Zerossl; Gogetssl; Trustico ];
  (* Retain root signers so deeper hierarchies can be grown lazily. The
     Sectigo-family resellers all chain under the USERTrust root. *)
  Hashtbl.replace t.root_signers Lets_encrypt le_root;
  Hashtbl.replace t.root_signers Digicert dc_root;
  List.iter
    (fun v -> Hashtbl.replace t.root_signers v usertrust)
    [ Sectigo; Zerossl; Gogetssl; Trustico ];
  Hashtbl.replace t.root_signers Taiwan_ca tw_root;
  Hashtbl.replace t.root_signers Cyber_folks cf_root;
  List.iteri (fun i r -> Hashtbl.replace t.root_signers (Other_ca i) r) other_roots;
  (* Store membership: every public root everywhere, minus the restricted
     roots' missing programs. The CAcert root and hidden government root are
     trusted nowhere, like their real counterparts. *)
  let public_roots =
    [ le_root.Issue.cert; dc_root.Issue.cert; usertrust.Issue.cert; aaa.Issue.cert;
      tw_root.Issue.cert; cf_root.Issue.cert; epki_root.Issue.cert; grca.Issue.cert ]
    @ List.map (fun r -> r.Issue.cert) other_roots
    @ t.legacy_roots
  in
  let stores =
    List.map
      (fun program ->
        let extra =
          List.filter_map
            (fun (root, missing) ->
              if List.mem program missing then None else Some root)
            restricted
        in
        (program, Root_store.make (Root_store.program_to_string program) (public_roots @ extra)))
      Root_store.all_programs
  in
  t.stores <- stores;
  t.union <- Root_store.union "union" (List.map snd stores);
  t

let hierarchy t vendor =
  match Hashtbl.find_opt t.hierarchies vendor with
  | Some h -> h
  | None -> invalid_arg ("Universe: no hierarchy for " ^ vendor_to_string vendor)

(* A deeper chain under the vendor's real root: root -> Tier_n -> ... ->
   Tier_1 -> issuing. Every certificate's AIA points at its parent's
   published location, so these chains are fully AIA-chaseable. [levels]
   counts the tiers between root and the issuing CA; the hierarchy therefore
   has [levels + 1] intermediates. *)
let make_deep t vendor ~levels =
  let root =
    match Hashtbl.find_opt t.root_signers vendor with
    | Some r -> r
    | None -> invalid_arg ("Universe: no retained root for " ^ vendor_to_string vendor)
  in
  let h = hierarchy t vendor in
  let root_cert = List.nth h.above (List.length h.above - 1) in
  let host =
    let base = String.lowercase_ascii (vendor_to_string vendor) in
    "deep." ^ String.map (function ' ' | '\'' | '_' -> '-' | c -> c) base ^ ".sim"
  in
  let root_uri = aia_uri ~host ~file:"root" in
  Aia_repo.publish t.aia ~uri:root_uri root_cert;
  let rec build parent parent_uri above k =
    if k = 0 then (parent, parent_uri, above)
    else begin
      let uri = aia_uri ~host ~file:(Printf.sprintf "tier%d" k) in
      let signer =
        Issue.issue t.rng ~parent
          (intermediate_spec ~now:t.now
             ~cn:(Printf.sprintf "%s Tier %d CA" (vendor_to_string vendor) k)
             ~o:(vendor_to_string vendor) ~aia:parent_uri ())
      in
      Aia_repo.publish t.aia ~uri signer.Issue.cert;
      build signer uri (signer.Issue.cert :: above) (k - 1)
    end
  in
  let top_tier, top_uri, above = build root root_uri [ root_cert ] levels in
  let issuing_uri = aia_uri ~host ~file:"issuing" in
  let issuing =
    Issue.issue t.rng ~parent:top_tier
      (intermediate_spec ~now:t.now
         ~cn:(Printf.sprintf "%s Deep DV CA" (vendor_to_string vendor))
         ~o:(vendor_to_string vendor) ~path_len:0 ~aia:top_uri ())
  in
  Aia_repo.publish t.aia ~uri:issuing_uri issuing.Issue.cert;
  { issuing; above; issuing_aia_uri = issuing_uri }

let hierarchy_deep t vendor =
  match Hashtbl.find_opt t.deep_hierarchies (vendor, 2) with
  | Some h -> h
  | None ->
      let h = make_deep t vendor ~levels:1 in
      Hashtbl.replace t.deep_hierarchies (vendor, 2) h;
      h

let hierarchy_deep4 t vendor =
  match Hashtbl.find_opt t.deep_hierarchies (vendor, 4) with
  | Some h -> h
  | None ->
      let h = make_deep t vendor ~levels:3 in
      Hashtbl.replace t.deep_hierarchies (vendor, 4) h;
      h

let hierarchy_no_akid t vendor =
  match Hashtbl.find_opt t.no_akid_hierarchies vendor with
  | Some h -> h
  | None -> hierarchy t vendor

let cross_pair t vendor = Hashtbl.find_opt t.crosses vendor

let mint_leaf t vendor ~domain ?hierarchy:h ?(faults = []) ?(no_aia = false)
    ?not_before ?not_after () =
  let h = match h with Some h -> h | None -> hierarchy t vendor in
  let not_before = Option.value not_before ~default:(Vtime.add_months t.now (-2)) in
  let not_after = Option.value not_after ~default:(Vtime.add_months not_before 12) in
  Issue.issue t.rng ~parent:h.issuing
    (Issue.spec
       ~san:[ Extension.Dns domain ]
       ~not_before ~not_after
       ~aia_ca_issuers:(if no_aia then [] else [ h.issuing_aia_uri ])
       ~faults
       (Dn.make ~cn:domain ()))

let sectigo_usertrust_self t = get "sectigo_usertrust_self" t.sectigo_usertrust_self_
let sectigo_usertrust_cross t = get "sectigo_usertrust_cross" t.sectigo_usertrust_cross_

let sectigo_usertrust_cross_expired t =
  get "sectigo_usertrust_cross_expired" t.sectigo_usertrust_cross_expired_

let digicert_ca1_recent t = get "digicert_ca1_recent" t.digicert_ca1_recent_
let digicert_ca1_old t = get "digicert_ca1_old" t.digicert_ca1_old_
let taiwan_global t = get "taiwan_global" t.taiwan_global_
let epki_hierarchy t = get "epki" t.epki_
let gov_hidden_root t = get "gov_hidden_root" t.gov_hidden_root_
let gov_grca_hierarchy t = get "gov_grca" t.gov_grca_
let gov_moex_intermediate t = get "gov_moex_intermediate" t.gov_moex_intermediate_
let gov_moex_cross_by_hidden t = get "gov_moex_cross_by_hidden" t.gov_moex_cross_by_hidden_
let cacert_class3 t = get "cacert_class3" t.cacert_class3_
let cacert_leaf_signer t = get "cacert_leaf_signer" t.cacert_leaf_signer_

let restricted_find t name =
  match List.assoc_opt name t.restricted_ with
  | Some r -> r
  | None -> invalid_arg ("Universe: no restricted hierarchy " ^ name)

let restricted_mc_recoverable t = restricted_find t "mc-recoverable"
let restricted_mc_dead_end t = restricted_find t "mc-dead-end"
let restricted_ms_recoverable t = restricted_find t "ms-recoverable"
let restricted_ms_dead_end t = restricted_find t "ms-dead-end"
let restricted_apple_recoverable t = restricted_find t "apple-recoverable"
let restricted_apple_dead_end t = restricted_find t "apple-dead-end"
