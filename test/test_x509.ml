open Chaoschain_x509
module Prng = Chaoschain_crypto.Prng
module Keys = Chaoschain_crypto.Keys
module Oid = Chaoschain_der.Oid
module Population = Chaoschain_measurement.Population
module Root_store = Chaoschain_pki.Root_store
module Universe = Chaoschain_pki.Universe

(* --- Vtime --- *)

let vtime_calendar () =
  let t = Vtime.make ~y:2024 ~m:2 ~d:29 ~hh:12 ~mm:30 ~ss:45 () in
  Alcotest.(check (triple int int int)) "ymd" (2024, 2, 29) (Vtime.ymd t);
  Alcotest.(check (triple int int int)) "hms" (12, 30, 45) (Vtime.hms t);
  Alcotest.check_raises "bad day" (Invalid_argument "Vtime.make: day") (fun () ->
      ignore (Vtime.make ~y:2023 ~m:2 ~d:29 ()));
  Alcotest.check_raises "bad month" (Invalid_argument "Vtime.make: month") (fun () ->
      ignore (Vtime.make ~y:2023 ~m:13 ~d:1 ()))

let vtime_arithmetic () =
  let t = Vtime.make ~y:2024 ~m:2 ~d:29 () in
  Alcotest.(check (triple int int int)) "leap clamp" (2025, 2, 28)
    (Vtime.ymd (Vtime.add_years t 1));
  Alcotest.(check (triple int int int)) "month clamp" (2024, 4, 30)
    (Vtime.ymd (Vtime.add_months (Vtime.make ~y:2024 ~m:3 ~d:31 ()) 1));
  Alcotest.(check int) "diff days across leap" 366
    (Vtime.diff_days (Vtime.make ~y:2025 ~m:1 ~d:1 ()) (Vtime.make ~y:2024 ~m:1 ~d:1 ()));
  Alcotest.(check (triple int int int)) "add_days across year" (2025, 1, 2)
    (Vtime.ymd (Vtime.add_days (Vtime.make ~y:2024 ~m:12 ~d:31 ()) 2))

let vtime_codec () =
  let t = Vtime.make ~y:2024 ~m:3 ~d:14 ~hh:1 ~mm:2 ~ss:3 () in
  Alcotest.(check string) "utctime" "240314010203Z" (Vtime.to_utctime t);
  (match Vtime.of_utctime "240314010203Z" with
  | Ok t' -> Alcotest.(check bool) "utc roundtrip" true (Vtime.equal t t')
  | Error e -> Alcotest.fail e);
  (match Vtime.of_utctime "490101000000Z" with
  | Ok t' -> Alcotest.(check (triple int int int)) "2049 window" (2049, 1, 1) (Vtime.ymd t')
  | Error e -> Alcotest.fail e);
  (match Vtime.of_utctime "500101000000Z" with
  | Ok t' -> Alcotest.(check (triple int int int)) "1950 window" (1950, 1, 1) (Vtime.ymd t')
  | Error e -> Alcotest.fail e);
  let far = Vtime.make ~y:2051 ~m:1 ~d:1 () in
  Alcotest.(check string) "generalized for 2051" "20510101000000Z" (Vtime.to_generalized far);
  (match Vtime.of_der_time (Vtime.to_der_time far) with
  | Ok t' -> Alcotest.(check bool) "der time roundtrip" true (Vtime.equal far t')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "reject bad utc" true (Result.is_error (Vtime.of_utctime "nope"));
  Alcotest.(check bool) "reject month 13" true
    (Result.is_error (Vtime.of_utctime "241314010203Z"))

let qcheck_vtime_roundtrip =
  QCheck.Test.make ~name:"civil<->days roundtrip" ~count:500
    QCheck.(triple (int_range 1950 2049) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) ->
      let t = Vtime.make ~y ~m ~d () in
      Vtime.ymd t = (y, m, d)
      && Result.get_ok (Vtime.of_utctime (Vtime.to_utctime t)) |> Vtime.equal t)

(* --- Dn --- *)

let dn_basics () =
  let dn = Dn.make ~c:"US" ~o:"DigiCert Inc" ~cn:"DigiCert TLS RSA SHA256 2020 CA1" () in
  Alcotest.(check (option string)) "cn" (Some "DigiCert TLS RSA SHA256 2020 CA1")
    (Dn.common_name dn);
  Alcotest.(check (option string)) "o" (Some "DigiCert Inc") (Dn.organization dn);
  Alcotest.(check string) "render" "C=US, O=DigiCert Inc, CN=DigiCert TLS RSA SHA256 2020 CA1"
    (Dn.to_string dn)

let dn_equality () =
  let a = Dn.make ~o:"Example  Corp" ~cn:"Foo" () in
  let b = Dn.make ~o:"example corp" ~cn:"FOO" () in
  Alcotest.(check bool) "loose equal" true (Dn.equal a b);
  Alcotest.(check bool) "strict differs" false (Dn.equal_strict a b);
  Alcotest.(check bool) "strict equal to itself" true (Dn.equal_strict a a);
  let c = Dn.make ~o:"Example Corp" ~cn:"Bar" () in
  Alcotest.(check bool) "different cn" false (Dn.equal a c);
  Alcotest.(check bool) "structure matters" false (Dn.equal a (Dn.make ~cn:"Foo" ()))

let dn_der_roundtrip () =
  let dn = Dn.make ~c:"TW" ~st:"Taipei" ~l:"Taipei" ~o:"TAIWAN-CA" ~ou:"SSL" ~cn:"TWCA Root" () in
  match Dn.of_der (Dn.to_der dn) with
  | Ok dn' -> Alcotest.(check bool) "roundtrip" true (Dn.equal_strict dn dn')
  | Error e -> Alcotest.fail e

(* --- Dn.equal against a fold-then-compare oracle --- *)

(* The reference semantics of RFC 5280 loose name chaining: drop leading and
   trailing blanks, fold internal blank runs to one space, lowercase ASCII,
   then compare bytes. *)
let fold_value s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false and started = ref false in
  String.iter
    (function
      | ' ' | '\t' -> if !started then pending_space := true
      | c ->
          if !pending_space then Buffer.add_char buf ' ';
          pending_space := false;
          started := true;
          Buffer.add_char buf (Char.lowercase_ascii c))
    s;
  Buffer.contents buf

let reference_dn_equal (a : Dn.t) (b : Dn.t) =
  let attr_eq (x : Dn.attr) (y : Dn.attr) =
    Oid.equal x.typ y.typ && String.equal (fold_value x.value) (fold_value y.value)
  in
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> List.length ra = List.length rb && List.for_all2 attr_eq ra rb)
       a b

let dn_value_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; ' '; '\t' ]) (int_range 0 6))

let dn_gen : Dn.t QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 0 3)
      (list_size (int_range 1 2)
         (map2
            (fun typ value -> { Dn.typ; value })
            (oneofl [ Oid.at_common_name; Oid.at_organization ])
            dn_value_gen)))

(* The same folded value spelled differently: letters re-cased, every blank
   widened to a run of 1-3 blanks, blanks maybe added at either end. *)
let respell v st =
  let buf = Buffer.create 16 in
  let blanks () =
    String.init (1 + Random.State.int st 3) (fun _ ->
        if Random.State.bool st then ' ' else '\t')
  in
  if Random.State.bool st then Buffer.add_string buf (blanks ());
  String.iter
    (function
      | ' ' | '\t' -> Buffer.add_string buf (blanks ())
      | c ->
          Buffer.add_char buf
            (if Random.State.bool st then Char.uppercase_ascii c else Char.lowercase_ascii c))
    v;
  if Random.State.bool st then Buffer.add_string buf (blanks ());
  Buffer.contents buf

let other_oid typ =
  if Oid.equal typ Oid.at_common_name then Oid.at_organization else Oid.at_common_name

(* The second DN is a respelling of the first (equal); a respelling with
   every blank removed (equal only where no blank was internal); a
   respelling with one RDN dropped, one attribute added or one OID changed
   (a different shape); or an independent draw. *)
let dn_pair_gen =
  let open QCheck.Gen in
  dn_gen >>= fun a ->
  let respelled st =
    List.map (List.map (fun (x : Dn.attr) -> { x with value = respell x.value st })) a
  in
  let unblank =
    let strip v = String.of_seq (Seq.filter (fun c -> c <> ' ' && c <> '\t') (String.to_seq v)) in
    List.map (List.map (fun (x : Dn.attr) -> { x with value = strip x.value }))
  in
  let drop_rdn = function [] -> [] | _ :: rest -> rest in
  let add_attr = function
    | [] -> [ [ { Dn.typ = Oid.at_common_name; value = "a" } ] ]
    | rdn :: rest -> (List.hd rdn :: rdn) :: rest
  in
  let change_oid = function
    | (x :: attrs) :: rest -> ({ x with Dn.typ = other_oid x.Dn.typ } :: attrs) :: rest
    | dn -> dn
  in
  map
    (fun b -> (a, b))
    (frequency
       [ (4, respelled);
         (1, map unblank respelled);
         (1, map drop_rdn respelled);
         (1, map add_attr respelled);
         (1, map change_oid respelled);
         (2, dn_gen) ])

let print_dn (dn : Dn.t) =
  "[" ^ String.concat "; "
    (List.map
       (fun rdn ->
         String.concat "+"
           (List.map
              (fun (x : Dn.attr) -> Printf.sprintf "%s=%S" (Oid.to_string x.typ) x.value)
              rdn))
       dn)
  ^ "]"

let qcheck_dn_equal_reference =
  QCheck.Test.make ~name:"Dn.equal agrees with fold-then-compare" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair print_dn print_dn) dn_pair_gen)
    (fun (a, b) ->
      let expected = reference_dn_equal a b in
      Bool.equal (Dn.equal a b) expected && Bool.equal (Dn.equal b a) expected)

(* --- Extensions --- *)

let ext_roundtrip e =
  match Extension.of_der (Extension.to_der e) with
  | Ok e' -> e' = e
  | Error _ -> false

let extension_roundtrips () =
  List.iter
    (fun (name, e) -> Alcotest.(check bool) name true (ext_roundtrip e))
    [ ("bc ca", Extension.basic_constraints ~ca:true ~path_len:3 ());
      ("bc leaf", Extension.basic_constraints ~ca:false ());
      ("bc no pathlen", Extension.basic_constraints ~ca:true ());
      ("ku", Extension.key_usage [ Extension.Key_cert_sign; Extension.Crl_sign ]);
      ("ku one bit", Extension.key_usage [ Extension.Digital_signature ]);
      ("ku 9th bit", Extension.key_usage [ Extension.Decipher_only ]);
      ("eku", Extension.ext_key_usage [ Chaoschain_der.Oid.eku_server_auth ]);
      ("san", Extension.subject_alt_name
                [ Extension.Dns "a.example"; Extension.Dns "*.a.example";
                  Extension.Ip "192.0.2.1" ]);
      ("skid", Extension.subject_key_id (String.make 20 'k'));
      ("akid keyid", Extension.authority_key_id (String.make 20 'a'));
      ("akid by name", Extension.authority_key_id_by_name (Dn.make ~cn:"X" ()) "\x01\x02");
      ("aia", Extension.authority_info_access
                ~ocsp:[ "http://ocsp.example" ] ~ca_issuers:[ "http://ca.example/i.crt" ] ()) ]

let extension_lookup () =
  let exts =
    [ Extension.basic_constraints ~ca:true ();
      Extension.subject_key_id "01234567890123456789" ]
  in
  Alcotest.(check bool) "find bc" true
    (Extension.find Chaoschain_der.Oid.ext_basic_constraints exts <> None);
  Alcotest.(check bool) "missing aia" true
    (Extension.find Chaoschain_der.Oid.ext_authority_info_access exts = None)

(* --- Cert / Issue / Relation --- *)

let now = Vtime.make ~y:2024 ~m:6 ~d:1 ()

let mini_pki label =
  let rng = Prng.of_label label in
  let root =
    Issue.self_signed rng
      (Issue.spec ~is_ca:true ~not_before:(Vtime.add_years now (-5))
         ~not_after:(Vtime.add_years now 15)
         (Dn.make ~o:"T" ~cn:("Root " ^ label) ()))
  in
  let inter =
    Issue.issue rng ~parent:root
      (Issue.spec ~is_ca:true ~path_len:0 ~not_before:(Vtime.add_years now (-1))
         ~not_after:(Vtime.add_years now 9)
         ~aia_ca_issuers:[ "http://aia.t/root.crt" ]
         (Dn.make ~o:"T" ~cn:("Inter " ^ label) ()))
  in
  let leaf =
    Issue.issue rng ~parent:inter
      (Issue.spec ~san:[ Extension.Dns "www.pki.example"; Extension.Dns "*.cdn.pki.example" ]
         (Dn.make ~cn:"www.pki.example" ()))
  in
  (rng, root, inter, leaf)

let cert_der_roundtrip () =
  let _, root, inter, leaf = mini_pki "roundtrip" in
  List.iter
    (fun (name, c) ->
      match Cert.of_der (Cert.to_der c) with
      | Ok c' ->
          Alcotest.(check bool) (name ^ " equal") true (Cert.equal c c');
          Alcotest.(check bool) (name ^ " fp") true
            (Cert.fingerprint c = Cert.fingerprint c');
          Alcotest.(check bool) (name ^ " skid") true
            (Cert.subject_key_id c = Cert.subject_key_id c');
          Alcotest.(check bool) (name ^ " tbs bytes") true
            (Cert.tbs_der c = Cert.tbs_der c')
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [ ("root", root.Issue.cert); ("inter", inter.Issue.cert); ("leaf", leaf.Issue.cert) ]

let cert_accessors () =
  let _, root, inter, leaf = mini_pki "accessors" in
  Alcotest.(check bool) "root self-signed" true (Cert.is_self_signed root.Issue.cert);
  Alcotest.(check bool) "root is ca" true (Cert.is_ca root.Issue.cert);
  Alcotest.(check bool) "inter not self-signed" false (Cert.is_self_signed inter.Issue.cert);
  Alcotest.(check bool) "leaf not ca" false (Cert.is_ca leaf.Issue.cert);
  Alcotest.(check bool) "inter aia" true
    (Cert.aia_ca_issuers inter.Issue.cert = [ "http://aia.t/root.crt" ]);
  (match Cert.basic_constraints inter.Issue.cert with
  | Some { Extension.ca = true; path_len = Some 0 } -> ()
  | _ -> Alcotest.fail "inter basic constraints");
  Alcotest.(check bool) "leaf valid now" true (Cert.valid_at leaf.Issue.cert now);
  Alcotest.(check bool) "leaf not valid in past" false
    (Cert.valid_at leaf.Issue.cert (Vtime.add_years now (-2)))

let cert_hostname_matching () =
  let _, _, _, leaf = mini_pki "hostnames" in
  let c = leaf.Issue.cert in
  Alcotest.(check bool) "exact" true (Cert.matches_hostname c "www.pki.example");
  Alcotest.(check bool) "case" true (Cert.matches_hostname c "WWW.PKI.Example");
  Alcotest.(check bool) "wildcard one label" true (Cert.matches_hostname c "a.cdn.pki.example");
  Alcotest.(check bool) "wildcard not two labels" false
    (Cert.matches_hostname c "a.b.cdn.pki.example");
  Alcotest.(check bool) "wildcard not bare" false (Cert.matches_hostname c "cdn.pki.example");
  Alcotest.(check bool) "unrelated" false (Cert.matches_hostname c "pki.example")

let cert_self_signed_vs_self_issued () =
  let rng = Prng.of_label "ss" in
  let a = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"Same" ())) in
  (* Same subject/issuer DN but signature by an unrelated key: self-issued,
     not self-signed. *)
  let b = Issue.issue rng ~parent:a (Issue.spec ~is_ca:true (Dn.make ~cn:"Same" ())) in
  Alcotest.(check bool) "self-issued" true (Cert.is_self_issued b.Issue.cert);
  Alcotest.(check bool) "not self-signed" false (Cert.is_self_signed b.Issue.cert)

let relation_basics () =
  let _, root, inter, leaf = mini_pki "relation" in
  let r = root.Issue.cert and i = inter.Issue.cert and l = leaf.Issue.cert in
  Alcotest.(check bool) "root issued inter" true (Relation.issued ~issuer:r ~child:i);
  Alcotest.(check bool) "inter issued leaf" true (Relation.issued ~issuer:i ~child:l);
  Alcotest.(check bool) "root did not issue leaf" false (Relation.issued ~issuer:r ~child:l);
  Alcotest.(check bool) "name chains" true (Relation.name_chains ~issuer:i ~child:l);
  Alcotest.(check bool) "kid match" true
    (Relation.kid_status ~issuer:i ~child:l = Relation.Kid_match);
  Alcotest.(check bool) "sig alg compatible" true (Relation.sig_alg_compatible ~issuer:i ~child:l)

let relation_kid_states () =
  let rng = Prng.of_label "kid-states" in
  let root = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"KR" ())) in
  let inter = Issue.issue rng ~parent:root (Issue.spec ~is_ca:true (Dn.make ~cn:"KI" ())) in
  let leaf = Issue.issue rng ~parent:inter (Issue.spec (Dn.make ~cn:"kid.example" ())) in
  let wrong_skid =
    Issue.cross_sign rng ~parent:root ~existing:inter ~faults:[ Issue.Wrong_skid ] ()
  in
  let no_skid =
    Issue.cross_sign rng ~parent:root ~existing:inter ~faults:[ Issue.No_skid ] ()
  in
  Alcotest.(check string) "mismatch" "mismatch"
    (Relation.kid_status_to_string (Relation.kid_status ~issuer:wrong_skid ~child:leaf.Issue.cert));
  Alcotest.(check string) "absent" "absent"
    (Relation.kid_status_to_string (Relation.kid_status ~issuer:no_skid ~child:leaf.Issue.cert))

let relation_flexible_rule () =
  let rng = Prng.of_label "flexible" in
  let root = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"FR" ())) in
  (* An intermediate whose AKID is wrong but whose name chains: the flexible
     rule still links it to its child via criterion 2. *)
  let inter =
    Issue.issue rng ~parent:root
      (Issue.spec ~is_ca:true ~faults:[ Issue.Wrong_skid ] (Dn.make ~cn:"FI" ()))
  in
  let leaf = Issue.issue rng ~parent:inter (Issue.spec (Dn.make ~cn:"f.example" ())) in
  Alcotest.(check bool) "issued despite kid mismatch" true
    (Relation.issued ~issuer:inter.Issue.cert ~child:leaf.Issue.cert);
  (* Broken signature always fails criterion 1. *)
  let broken =
    Issue.issue rng ~parent:inter
      (Issue.spec ~faults:[ Issue.Broken_signature ] (Dn.make ~cn:"f2.example" ()))
  in
  Alcotest.(check bool) "broken signature not issued" false
    (Relation.issued ~issuer:inter.Issue.cert ~child:broken.Issue.cert)

let issue_faults () =
  let rng = Prng.of_label "faults" in
  let root = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"F" ())) in
  let with_faults faults = Issue.issue_cert rng ~parent:root (Issue.spec ~is_ca:true ~faults (Dn.make ~cn:"FX" ())) in
  Alcotest.(check bool) "no skid" true (Cert.subject_key_id (with_faults [ Issue.No_skid ]) = None);
  Alcotest.(check bool) "no akid" true (Cert.authority_key_id (with_faults [ Issue.No_akid ]) = None);
  Alcotest.(check bool) "not a ca" false (Cert.is_ca (with_faults [ Issue.Not_a_ca ]));
  Alcotest.(check bool) "no bc" true
    (Cert.basic_constraints (with_faults [ Issue.No_basic_constraints ]) = None);
  Alcotest.(check bool) "no ku" true (Cert.key_usage (with_faults [ Issue.No_key_usage ]) = None);
  (match Cert.key_usage (with_faults [ Issue.Wrong_key_usage ]) with
  | Some flags ->
      Alcotest.(check bool) "wrong ku lacks certsign" false
        (List.mem Extension.Key_cert_sign flags)
  | None -> Alcotest.fail "expected key usage");
  let expired = with_faults [ Issue.Expired ] in
  Alcotest.(check bool) "expired" false (Cert.valid_at expired now);
  Alcotest.(check bool) "expired is in past" true Vtime.(Cert.not_after expired < now);
  let future = with_faults [ Issue.Not_yet_valid ] in
  Alcotest.(check bool) "future" true Vtime.(now < Cert.not_before future)

let cross_sign_properties () =
  let rng = Prng.of_label "cross" in
  let r1 = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"R1" ())) in
  let r2 = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"R2" ())) in
  let inter = Issue.issue rng ~parent:r1 (Issue.spec ~is_ca:true (Dn.make ~cn:"XS" ())) in
  let cross = Issue.cross_sign rng ~parent:r2 ~existing:inter () in
  Alcotest.(check bool) "same subject" true
    (Dn.equal (Cert.subject cross) (Cert.subject inter.Issue.cert));
  Alcotest.(check bool) "same skid" true
    (Cert.subject_key_id cross = Cert.subject_key_id inter.Issue.cert);
  Alcotest.(check bool) "different issuer" false
    (Dn.equal (Cert.issuer cross) (Cert.issuer inter.Issue.cert));
  Alcotest.(check bool) "r2 issued cross" true
    (Relation.issued ~issuer:r2.Issue.cert ~child:cross);
  (* Both variants certify the same key, so both validate children. *)
  let leaf = Issue.issue rng ~parent:inter (Issue.spec (Dn.make ~cn:"x.example" ())) in
  Alcotest.(check bool) "cross verifies child too" true
    (Relation.signature_ok ~issuer:cross ~child:leaf.Issue.cert)

(* --- Facts derived once per certificate --- *)

let recomputed_facts c =
  let tbs = Cert.tbs c in
  let self_signed =
    Dn.equal tbs.Cert.subject tbs.Cert.issuer
    && Keys.verify tbs.Cert.public_key (Cert.tbs_der c) (Cert.signature c)
  in
  let ext oid = Extension.find oid tbs.Cert.extensions in
  let skid =
    match ext Oid.ext_subject_key_id with
    | Some { Extension.value = Extension.Subject_key_id k; _ } -> Some k
    | _ -> None
  in
  let akid =
    match ext Oid.ext_authority_key_id with
    | Some { Extension.value = Extension.Authority_key_id a; _ } -> Some a
    | _ -> None
  in
  (self_signed, skid, akid)

(* Which of [c]'s memoised facts, and of [c] decoded back from its DER,
   differ from a recomputation from the TBS. *)
let stale_facts c =
  let stale what c =
    let self_signed, skid, akid = recomputed_facts c in
    List.filter_map
      (fun (fact, ok) -> if ok then None else Some (what ^ fact))
      [ ("self-signed", Bool.equal self_signed (Cert.is_self_signed c));
        ("skid", Option.equal String.equal skid (Cert.subject_key_id c));
        ("akid", akid = Cert.authority_key_id c) ]
  in
  match Cert.of_der (Cert.to_der c) with
  | Ok c' -> stale "" c @ stale "decoded " c'
  | Error e -> [ e ]

let check_facts name c =
  Alcotest.(check (list string)) (name ^ " facts") [] (stale_facts c)

let cert_derived_facts () =
  let p = Population.generate ~scale:0.002 () in
  let seen = Hashtbl.create 1024 in
  let stale =
    List.concat_map
      (fun c ->
        let fp = Cert.fingerprint c in
        if Hashtbl.mem seen fp then []
        else begin
          Hashtbl.add seen fp ();
          List.map (fun fact -> Cert.summary c ^ " " ^ fact) (stale_facts c)
        end)
      (List.concat
         [ List.concat_map (fun r -> r.Population.chain) (Array.to_list p.Population.domains);
           p.Population.firefox_cache;
           p.Population.os_store;
           Root_store.certs (Universe.union_store p.Population.universe) ])
  in
  Alcotest.(check (list string)) "population facts" [] stale;
  Alcotest.(check bool) "population certificates checked" true (Hashtbl.length seen > 1000);
  let rng = Prng.of_label "derived-facts" in
  let root =
    Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~o:"Facts Inc" ~cn:"Facts Root" ()))
  in
  let tbs = Cert.tbs root.Issue.cert in
  (* Self-issued, but the signature verifies under no key. *)
  let garbage = Cert.create tbs (Keys.forge_garbage rng Keys.Rsa_2048) in
  Alcotest.(check bool) "garbage self-issued" true (Cert.is_self_issued garbage);
  Alcotest.(check bool) "garbage not self-signed" false (Cert.is_self_signed garbage);
  check_facts "garbage" garbage;
  (* The issuer differs from the subject only in case and blanks; signed by
     the certificate's own key. *)
  let respelled =
    { tbs with Cert.issuer = Dn.make ~o:"  facts   INC " ~cn:"FACTS\t\troot" () }
  in
  let unsigned = Cert.create respelled (Keys.forge_garbage rng Keys.Rsa_2048) in
  let loose = Cert.create respelled (Keys.sign root.Issue.key (Cert.tbs_der unsigned)) in
  Alcotest.(check bool) "loose names differ byte-wise" false
    (Dn.equal_strict (Cert.subject loose) (Cert.issuer loose));
  Alcotest.(check bool) "loose self-issued" true (Cert.is_self_issued loose);
  Alcotest.(check bool) "loose self-signed" true (Cert.is_self_signed loose);
  check_facts "loose" loose

(* Four Domains memoise overlapping fresh (issuer, child) pairs — 32k of
   them, about 500 per memo shard, so every shard's table resizes at least
   twice while the other Domains read and write it — and every answer must
   be the direct verification's. *)
let sig_memo_domain_hammer () =
  let rng = Prng.of_label "memo-hammer" in
  let n_issuers = 40 and n_children = 800 in
  let issuers =
    Array.init n_issuers (fun i ->
        Issue.self_signed rng
          (Issue.spec ~is_ca:true (Dn.make ~cn:(Printf.sprintf "Hammer CA %d" i) ())))
  in
  let children =
    Array.init n_children (fun j ->
        Issue.issue_cert rng ~parent:issuers.(j mod n_issuers)
          (Issue.spec (Dn.make ~cn:(Printf.sprintf "h%d.example" j) ())))
  in
  let n_pairs = n_issuers * n_children in
  let pair k = (issuers.(k mod n_issuers).Issue.cert, children.(k / n_issuers)) in
  let expected =
    Array.init n_pairs (fun k ->
        let issuer, child = pair k in
        Keys.verify (Cert.public_key issuer) (Cert.tbs_der child) (Cert.signature child))
  in
  (* Each Domain walks every pair, starting a quarter further on than the
     previous one, so all four keep missing and hitting the same shards. *)
  let worker d () =
    let wrong = ref 0 in
    for step = 0 to n_pairs - 1 do
      let k = (step + (d * n_pairs / 4)) mod n_pairs in
      let issuer, child = pair k in
      if not (Bool.equal (Relation.signature_ok ~issuer ~child) expected.(k)) then incr wrong
    done;
    !wrong
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let wrong = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "answers differing from Keys.verify" 0 wrong;
  Alcotest.(check int) "pairs that verify" n_children
    (Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 expected)

let qcheck_cert_fp_unique =
  QCheck.Test.make ~name:"distinct serial => distinct fingerprint" ~count:30
    QCheck.unit
    (fun () ->
      let rng = Prng.of_label "fp-unique" in
      let root = Issue.self_signed rng (Issue.spec ~is_ca:true (Dn.make ~cn:"U" ())) in
      let a = Issue.issue_cert rng ~parent:root (Issue.spec (Dn.make ~cn:"same.example" ())) in
      let b = Issue.issue_cert rng ~parent:root (Issue.spec (Dn.make ~cn:"same.example" ())) in
      not (Cert.equal a b))

let suite =
  [ Alcotest.test_case "vtime calendar" `Quick vtime_calendar;
    Alcotest.test_case "vtime arithmetic" `Quick vtime_arithmetic;
    Alcotest.test_case "vtime codec" `Quick vtime_codec;
    QCheck_alcotest.to_alcotest qcheck_vtime_roundtrip;
    Alcotest.test_case "dn basics" `Quick dn_basics;
    Alcotest.test_case "dn equality" `Quick dn_equality;
    Alcotest.test_case "dn der roundtrip" `Quick dn_der_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_dn_equal_reference;
    Alcotest.test_case "extension roundtrips" `Quick extension_roundtrips;
    Alcotest.test_case "extension lookup" `Quick extension_lookup;
    Alcotest.test_case "cert der roundtrip" `Quick cert_der_roundtrip;
    Alcotest.test_case "cert accessors" `Quick cert_accessors;
    Alcotest.test_case "hostname matching" `Quick cert_hostname_matching;
    Alcotest.test_case "self-signed vs self-issued" `Quick cert_self_signed_vs_self_issued;
    Alcotest.test_case "relation basics" `Quick relation_basics;
    Alcotest.test_case "relation kid states" `Quick relation_kid_states;
    Alcotest.test_case "relation flexible rule" `Quick relation_flexible_rule;
    Alcotest.test_case "issuance faults" `Quick issue_faults;
    Alcotest.test_case "cross-sign properties" `Quick cross_sign_properties;
    Alcotest.test_case "derived facts match recomputation" `Quick cert_derived_facts;
    Alcotest.test_case "signature memo Domain hammer" `Quick sig_memo_domain_hammer;
    QCheck_alcotest.to_alcotest qcheck_cert_fp_unique ]
