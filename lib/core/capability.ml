open Chaoschain_x509
open Chaoschain_pki
module Prng = Chaoschain_crypto.Prng

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

let all_tests =
  [ Order_reorganization; Redundancy_elimination; Aia_completion; Validity_priority;
    Kid_priority; Keyusage_priority; Basic_constraints_priority;
    Path_length_constraint; Self_signed_leaf ]

let test_name = function
  | Order_reorganization -> "Order Reorganization"
  | Redundancy_elimination -> "Redundancy Elimination"
  | Aia_completion -> "AIA Completion"
  | Validity_priority -> "Validity Priority"
  | Kid_priority -> "KID Matching Priority"
  | Keyusage_priority -> "KeyUsage Correctness Priority"
  | Basic_constraints_priority -> "Basic Constraints Priority"
  | Path_length_constraint -> "Path Length Constraint"
  | Self_signed_leaf -> "Self-signed Leaf Certificate"

let test_case_notation = function
  | Order_reorganization -> "{E, I2, I1, R}"
  | Redundancy_elimination -> "{E, X, I, R}"
  | Aia_completion -> "{E, I1}; I1's AIA caIssuers points to I2"
  | Validity_priority -> "{E, I1, I, I2, I3, R}; same subject, differing validity"
  | Kid_priority -> "{E, I1, I2, I, R}; KID match / mismatch / absent"
  | Keyusage_priority -> "{E, I1, I2, I, R}; KeyUsage correct / incorrect / absent"
  | Basic_constraints_priority -> "{E, I1, I3, I2, R}; pathLen correct vs incorrect"
  | Path_length_constraint -> "{E, I1, ..., In, R}"
  | Self_signed_leaf -> "{ES, E, I, R}; same subject, ES self-signed"

type fixture = {
  host : string;
  served : Cert.t list;
  store : Root_store.t;
  aia : Aia_repo.t;
  cache : Cert.t list;
  now : Vtime.t;
  labelled : (string * Cert.t) list;
}

let now = Vtime.make ~y:2024 ~m:6 ~d:1 ~hh:12 ()
let host = "test.chain.example"

(* A small laboratory: root + helpers, deterministic per test label. *)
type lab = {
  rng : Prng.t;
  root : Issue.signer;
  root_store : Root_store.t;
  repo : Aia_repo.t;
}

let make_lab label =
  let rng = Prng.of_label ("capability:" ^ label) in
  let root =
    Issue.self_signed rng
      (Issue.spec ~is_ca:true
         ~not_before:(Vtime.add_years now (-10))
         ~not_after:(Vtime.add_years now 15)
         (Dn.make ~c:"US" ~o:"Capability Lab" ~cn:("Lab Root " ^ label) ()))
  in
  { rng;
    root;
    root_store = Root_store.make "lab" [ root.Issue.cert ];
    repo = Aia_repo.create () }

let intermediate ?(faults = []) ?path_len ?not_before ?not_after ?aia lab ~parent ~cn =
  let not_before = Option.value not_before ~default:(Vtime.add_years now (-2)) in
  let not_after = Option.value not_after ~default:(Vtime.add_years now 8) in
  Issue.issue lab.rng ~parent
    (Issue.spec ~is_ca:true ?path_len ~not_before ~not_after
       ~aia_ca_issuers:(match aia with None -> [] | Some u -> [ u ])
       ~faults
       (Dn.make ~c:"US" ~o:"Capability Lab" ~cn ()))

let leaf ?(faults = []) lab ~parent =
  Issue.issue lab.rng ~parent
    (Issue.spec
       ~san:[ Extension.Dns host ]
       ~not_before:(Vtime.add_months now (-2))
       ~not_after:(Vtime.add_months now 10)
       ~faults
       (Dn.make ~cn:host ()))

let base_fixture lab ~served ~labelled =
  { host; served; store = lab.root_store; aia = lab.repo; cache = []; now; labelled }

(* Re-certify [existing]'s subject + key under [parent] with altered fields;
   the workhorse for same-subject candidate families. *)
let variant lab ~parent ~existing ?(faults = []) ?not_before ?not_after () =
  Issue.cross_sign lab.rng ~parent ~existing ~faults
    ~not_before:(Option.value not_before ~default:(Vtime.add_years now (-2)))
    ~not_after:(Option.value not_after ~default:(Vtime.add_years now 8))
    ()

let fixture_order () =
  let lab = make_lab "order" in
  let i2 = intermediate lab ~parent:lab.root ~cn:"Order I2" in
  let i1 = intermediate lab ~parent:i2 ~cn:"Order I1" in
  let e = leaf lab ~parent:i1 in
  base_fixture lab
    ~served:[ e.Issue.cert; i2.Issue.cert; i1.Issue.cert; lab.root.Issue.cert ]
    ~labelled:[ ("E", e.Issue.cert); ("I1", i1.Issue.cert); ("I2", i2.Issue.cert) ]

let fixture_redundancy () =
  let lab = make_lab "redundancy" in
  let other = make_lab "redundancy-other" in
  let x = intermediate other ~parent:other.root ~cn:"Unrelated X" in
  let i = intermediate lab ~parent:lab.root ~cn:"Redundancy I" in
  let e = leaf lab ~parent:i in
  base_fixture lab
    ~served:[ e.Issue.cert; x.Issue.cert; i.Issue.cert; lab.root.Issue.cert ]
    ~labelled:[ ("E", e.Issue.cert); ("X", x.Issue.cert); ("I", i.Issue.cert) ]

let fixture_aia () =
  let lab = make_lab "aia" in
  let i2_uri = "http://aia.lab.example/i2.crt" in
  let root_uri = "http://aia.lab.example/root.crt" in
  let i2 = intermediate lab ~parent:lab.root ~cn:"AIA I2" ~aia:root_uri in
  let i1 = intermediate lab ~parent:i2 ~cn:"AIA I1" ~aia:i2_uri in
  let e = leaf lab ~parent:i1 in
  Aia_repo.publish lab.repo ~uri:i2_uri i2.Issue.cert;
  Aia_repo.publish lab.repo ~uri:root_uri lab.root.Issue.cert;
  base_fixture lab
    ~served:[ e.Issue.cert; i1.Issue.cert ]
    ~labelled:[ ("E", e.Issue.cert); ("I1", i1.Issue.cert); ("I2", i2.Issue.cert) ]

let fixture_validity () =
  let lab = make_lab "validity" in
  let i = intermediate lab ~parent:lab.root ~cn:"Validity I"
      ~not_before:(Vtime.add_months now (-6))
      ~not_after:(Vtime.add_months now 6) in
  (* Same subject and key, different validity windows. *)
  let i1 =
    variant lab ~parent:lab.root ~existing:i
      ~not_before:(Vtime.add_years now (-3)) ~not_after:(Vtime.add_years now (-1)) ()
  in
  let i2 =
    variant lab ~parent:lab.root ~existing:i
      ~not_before:(Vtime.add_months now (-1)) ~not_after:(Vtime.add_months now 11) ()
  in
  let i3 =
    variant lab ~parent:lab.root ~existing:i
      ~not_before:(Vtime.add_months now (-6)) ~not_after:(Vtime.add_years now 9) ()
  in
  let e = leaf lab ~parent:i in
  base_fixture lab
    ~served:[ e.Issue.cert; i1; i.Issue.cert; i2; i3; lab.root.Issue.cert ]
    ~labelled:
      [ ("E", e.Issue.cert); ("I", i.Issue.cert); ("I1-expired", i1);
        ("I2-recent", i2); ("I3-long", i3) ]

let fixture_kid () =
  let lab = make_lab "kid" in
  let i = intermediate lab ~parent:lab.root ~cn:"KID I" in
  let i1 = variant lab ~parent:lab.root ~existing:i ~faults:[ Issue.Wrong_skid ] () in
  let i2 = variant lab ~parent:lab.root ~existing:i ~faults:[ Issue.No_skid ] () in
  let e = leaf lab ~parent:i in
  base_fixture lab
    ~served:[ e.Issue.cert; i1; i2; i.Issue.cert; lab.root.Issue.cert ]
    ~labelled:
      [ ("E", e.Issue.cert); ("I-match", i.Issue.cert); ("I1-mismatch", i1);
        ("I2-absent", i2) ]

let fixture_keyusage () =
  let lab = make_lab "keyusage" in
  let i = intermediate lab ~parent:lab.root ~cn:"KU I" in
  let i1 = variant lab ~parent:lab.root ~existing:i ~faults:[ Issue.Wrong_key_usage ] () in
  let i2 = variant lab ~parent:lab.root ~existing:i ~faults:[ Issue.No_key_usage ] () in
  let e = leaf lab ~parent:i in
  base_fixture lab
    ~served:[ e.Issue.cert; i1; i2; i.Issue.cert; lab.root.Issue.cert ]
    ~labelled:
      [ ("E", e.Issue.cert); ("I-correct", i.Issue.cert); ("I1-incorrect", i1);
        ("I2-absent", i2) ]

let fixture_basic_constraints () =
  let lab = make_lab "bc" in
  let i2 = intermediate lab ~parent:lab.root ~cn:"BC Upper" ~path_len:1 in
  let i3 = variant lab ~parent:lab.root ~existing:i2 ~faults:[ Issue.Wrong_path_len 0 ] () in
  let i1 = intermediate lab ~parent:i2 ~cn:"BC Lower" ~path_len:0 in
  let e = leaf lab ~parent:i1 in
  base_fixture lab
    ~served:[ e.Issue.cert; i1.Issue.cert; i3; i2.Issue.cert; lab.root.Issue.cert ]
    ~labelled:
      [ ("E", e.Issue.cert); ("I1", i1.Issue.cert); ("I2-correct", i2.Issue.cert);
        ("I3-incorrect", i3) ]

let length_fixture n =
  let lab = make_lab (Printf.sprintf "length-%d" n) in
  let rec chain parent acc k =
    if k > n then (parent, acc)
    else
      let i = intermediate lab ~parent ~cn:(Printf.sprintf "Len I%d" k) in
      chain i (i.Issue.cert :: acc) (k + 1)
  in
  let last, intermediates_rev = chain lab.root [] 1 in
  let e = leaf lab ~parent:last in
  (* [intermediates_rev] accumulated deepest-first, which is exactly the
     compliant leaf-to-root serving order. *)
  base_fixture lab
    ~served:(e.Issue.cert :: (intermediates_rev @ [ lab.root.Issue.cert ]))
    ~labelled:[ ("E", e.Issue.cert) ]

let fixture_self_signed () =
  let lab = make_lab "self-signed-leaf" in
  let i = intermediate lab ~parent:lab.root ~cn:"SSL I" in
  let e = leaf lab ~parent:i in
  let es =
    Issue.self_signed lab.rng
      (Issue.spec
         ~san:[ Extension.Dns host ]
         ~not_before:(Vtime.add_months now (-2))
         ~not_after:(Vtime.add_months now 10)
         (Dn.make ~cn:host ()))
  in
  base_fixture lab
    ~served:[ es.Issue.cert; e.Issue.cert; i.Issue.cert; lab.root.Issue.cert ]
    ~labelled:[ ("ES", es.Issue.cert); ("E", e.Issue.cert); ("I", i.Issue.cert) ]

let fixture = function
  | Order_reorganization -> fixture_order ()
  | Redundancy_elimination -> fixture_redundancy ()
  | Aia_completion -> fixture_aia ()
  | Validity_priority -> fixture_validity ()
  | Kid_priority -> fixture_kid ()
  | Keyusage_priority -> fixture_keyusage ()
  | Basic_constraints_priority -> fixture_basic_constraints ()
  | Path_length_constraint -> length_fixture 40
  | Self_signed_leaf -> fixture_self_signed ()

let run_client client fx =
  let ctx = Clients.context client ~store:fx.store ~aia:fx.aia ~cache:fx.cache ~now:fx.now in
  Engine.run ctx ~host:(Some fx.host) fx.served

(* Which labelled certificate appears at path position 1 (the chosen direct
   issuer of the leaf)? *)
let chosen_issuer fx outcome =
  match outcome.Engine.constructed with
  | Some (_ :: chosen :: _) ->
      List.find_map
        (fun (name, cert) -> if Cert.equal cert chosen then Some name else None)
        fx.labelled
  | _ -> None

let yes_no = function true -> "yes" | false -> "no"

let evaluate_basic client test =
  let fx = fixture test in
  yes_no (Engine.accepted (run_client client fx))

let evaluate_validity client =
  let fx = fixture Validity_priority in
  match chosen_issuer fx (run_client client fx) with
  | Some "I1-expired" -> "-"
  | Some "I" -> "VP1"
  | Some "I2-recent" -> "VP2"
  | Some other -> "?" ^ other
  | None -> "fail"

let evaluate_kid client =
  let fx = fixture Kid_priority in
  match chosen_issuer fx (run_client client fx) with
  | Some "I1-mismatch" -> "-"
  | Some "I2-absent" -> "KP1"
  | Some "I-match" -> "KP2"
  | Some other -> "?" ^ other
  | None -> "fail"

let evaluate_keyusage client =
  let fx = fixture Keyusage_priority in
  match chosen_issuer fx (run_client client fx) with
  | Some "I1-incorrect" -> "-"
  | Some ("I2-absent" | "I-correct") -> "KUP"
  | Some other -> "?" ^ other
  | None -> "fail"

(* For BC the discriminating choice is the issuer of I1 (path position 2). *)
let evaluate_bc client =
  let fx = fixture Basic_constraints_priority in
  let outcome = run_client client fx in
  match outcome.Engine.constructed with
  | Some (_ :: _ :: chosen :: _) -> (
      match
        List.find_map
          (fun (name, cert) -> if Cert.equal cert chosen then Some name else None)
          fx.labelled
      with
      | Some "I3-incorrect" -> "-"
      | Some "I2-correct" -> "BP"
      | Some other -> "?" ^ other
      | None -> "fail")
  | _ -> "fail"

let evaluate_length client =
  (* Find the largest n (number of intermediates) that validates, probing the
     interesting thresholds the paper reports plus a >52 sentinel. *)
  let passes n = Engine.accepted (run_client client (length_fixture n)) in
  if passes 51 then ">52"
  else begin
    (* Binary search the threshold in [0, 51]. *)
    let rec search lo hi =
      (* invariant: passes lo, not (passes hi) *)
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if passes mid then search mid hi else search lo mid
    in
    let max_n = if passes 0 then search 0 51 else -1 in
    if max_n < 0 then "=0"
    else
      (* Chain length = leaf + n intermediates + root. *)
      Printf.sprintf "=%d" (max_n + 2)
  end

let evaluate_self_signed client =
  let fx = fixture Self_signed_leaf in
  let outcome = run_client client fx in
  match outcome.Engine.result with
  | Error (Engine.Build Path_builder.Self_signed_leaf_rejected) -> "no"
  | Error (Engine.Validate Path_validate.Self_signed_leaf) -> "yes"
  | _ -> (
      match outcome.Engine.constructed with
      | Some [ single ] when Cert.is_self_signed single -> "yes"
      | _ -> "no")

let evaluate client test =
  match test with
  | Order_reorganization | Redundancy_elimination | Aia_completion ->
      evaluate_basic client test
  | Validity_priority -> evaluate_validity client
  | Kid_priority -> evaluate_kid client
  | Keyusage_priority -> evaluate_keyusage client
  | Basic_constraints_priority -> evaluate_bc client
  | Path_length_constraint -> evaluate_length client
  | Self_signed_leaf -> evaluate_self_signed client

let table9_expected id test =
  let open Clients in
  match (test, id) with
  | Order_reorganization, Mbedtls -> "no"
  | Order_reorganization, _ -> "yes"
  | Redundancy_elimination, _ -> "yes"
  | Aia_completion, (Cryptoapi | Chrome | Edge | Safari) -> "yes"
  | Aia_completion, _ -> "no"
  | Validity_priority, (Openssl | Mbedtls | Firefox) -> "VP1"
  | Validity_priority, Gnutls -> "-"
  | Validity_priority, _ -> "VP2"
  | Kid_priority, (Openssl | Gnutls | Safari) -> "KP1"
  | Kid_priority, (Cryptoapi | Chrome | Edge) -> "KP2"
  | Kid_priority, (Mbedtls | Firefox) -> "-"
  | Keyusage_priority, (Openssl | Gnutls) -> "-"
  | Keyusage_priority, _ -> "KUP"
  | Basic_constraints_priority, (Openssl | Gnutls) -> "-"
  | Basic_constraints_priority, _ -> "BP"
  | Path_length_constraint, (Openssl | Chrome | Safari) -> ">52"
  | Path_length_constraint, Gnutls -> "=16"
  | Path_length_constraint, Mbedtls -> "=10"
  | Path_length_constraint, Cryptoapi -> "=13"
  | Path_length_constraint, Edge -> "=21"
  | Path_length_constraint, Firefox -> "=8"
  | Self_signed_leaf, (Mbedtls | Safari) -> "yes"
  | Self_signed_leaf, _ -> "no"

type coverage = { capability : string; better_tls : bool; this_work : bool }

let betterlts_comparison =
  [ { capability = "ORDER_REORGANIZATION"; better_tls = false; this_work = true };
    { capability = "REDUNDANCY_ELIMINATION"; better_tls = false; this_work = true };
    { capability = "AIA_COMPLETION"; better_tls = false; this_work = true };
    { capability = "EXPIRED"; better_tls = true; this_work = true };
    { capability = "NAME_CONSTRAINTS"; better_tls = true; this_work = false };
    { capability = "BAD_EKU"; better_tls = true; this_work = false };
    { capability = "MISS_BASIC_CONSTRAINTS"; better_tls = true; this_work = false };
    { capability = "NOT_A_CA"; better_tls = true; this_work = false };
    { capability = "DEPRECATED_CRYPTO"; better_tls = true; this_work = false };
    { capability = "BAD_PATH_LENGTH"; better_tls = false; this_work = true };
    { capability = "BAD_KID"; better_tls = false; this_work = true };
    { capability = "BAD_KU"; better_tls = false; this_work = true };
    { capability = "PATH_LENGTH_CONSTRAINT"; better_tls = false; this_work = true };
    { capability = "SELF_SIGNED_LEAF_CERT"; better_tls = false; this_work = true } ]
