(* The per-layer request anatomy: the workload's own frames replayed
   in-process through each layer's public function, with a span around
   every call. [handle] mirrors what Engine.handle_frame does for a
   default-options check — parse, resolve the chain, key, LRU, and on a
   miss compliance + eight-client difftest + advice + render — and its
   replies are checked byte-for-byte against the engine's, so the spans
   time the same work the engine does. Nothing inside lib/ is
   instrumented. *)

open Chaoschain_core
module Engine = Chaoschain_service.Engine
module Protocol = Chaoschain_service.Protocol
module Lru = Chaoschain_service.Lru
module Json = Chaoschain_service.Json
module Framing = Chaoschain_net.Framing
module Pem = Chaoschain_deployment.Pem
module Base64 = Chaoschain_deployment.Base64
module Certmsg = Chaoschain_tlssim.Certmsg
module Cert = Chaoschain_x509.Cert
module Intern = Chaoschain_pki.Intern
module Scanner = Chaoschain_measurement.Scanner
module Hex = Chaoschain_crypto.Hex

type mirror = { env : Engine.env; cache : string Lru.t; tr : Trace.t }

let json_strings l = Json.List (List.map (fun s -> Json.String s) l)

(* --- the verdict, rendered exactly as the engine renders it --- *)

let compliance_json (report : Compliance.report) =
  let o = report.Compliance.order and c = report.Compliance.completeness in
  Json.Obj
    [ ("compliant", Json.Bool (Compliance.compliant report));
      ("reasons", json_strings (Compliance.non_compliance_reasons report));
      ("leaf", Json.String (Leaf_check.verdict_to_string report.Compliance.leaf));
      ( "order",
        Json.Obj
          [ ("ordered", Json.Bool o.Order_check.ordered);
            ("violations", json_strings (Order_check.violations o));
            ("path_count", Json.Int o.Order_check.path_count);
            ("reversed_paths", Json.Int o.Order_check.reversed_paths) ] );
      ( "completeness",
        Json.Obj
          [ ( "verdict",
              Json.String (Completeness.verdict_to_string c.Completeness.verdict) );
            ( "cause",
              match c.Completeness.cause with
              | None -> Json.Null
              | Some cause ->
                  Json.String (Completeness.incomplete_cause_to_string cause) );
            ("missing_count", Json.Int c.Completeness.missing_count);
            ("via_aia", Json.Bool c.Completeness.via_aia) ] ) ]

let difftest_json (case : Difftest.case) =
  Json.Obj
    [ ( "clients",
        Json.List
          (List.map
             (fun (r : Difftest.client_result) ->
               Json.Obj
                 [ ("name", Json.String r.Difftest.client.Clients.name);
                   ("version", Json.String r.Difftest.client.Clients.version);
                   ( "accepted",
                     Json.Bool (Chaoschain_core.Engine.accepted r.Difftest.outcome) );
                   ("message", Json.String r.Difftest.message) ])
             case.Difftest.results) );
      ( "causes",
        json_strings (List.map Difftest.cause_to_string (Difftest.classify case)) );
      ("browsers_agree", Json.Bool (Difftest.browsers_agree case));
      ("libraries_agree", Json.Bool (Difftest.libraries_agree case));
      ("all_browsers_pass", Json.Bool (Difftest.all_browsers_pass case));
      ("all_libraries_pass", Json.Bool (Difftest.all_libraries_pass case)) ]

let recommend_json advice corrected =
  Json.Obj
    [ ( "advice",
        Json.List
          (List.map
             (fun (a : Recommend.advice) ->
               Json.Obj
                 [ ( "audience",
                     Json.String (Recommend.audience_to_string a.Recommend.audience) );
                   ( "severity",
                     Json.String
                       (match a.Recommend.severity with
                       | `Must -> "must"
                       | `Should -> "should") );
                   ("text", Json.String a.Recommend.text) ])
             advice) );
      ( "corrected_pem",
        match corrected with Some pem -> Json.String pem | None -> Json.Null ) ]

let client_span =
  List.map
    (fun (c : Clients.t) ->
      (c, "difftest.client." ^ Protocol.client_id_to_string c.Clients.id))
    Clients.all


let compute m ~domain certs =
  let sp name f = Trace.span m.tr name f in
  let env = m.env in
  let report =
    sp "compliance.analyze" (fun () ->
        Compliance.analyze ~aia_enabled:true ~store:env.Engine.union_store
          ~aia:env.Engine.aia ~domain certs)
  in
  let case =
    sp "difftest.run_case" (fun () ->
        let results =
          List.concat_map
            (fun (c, name) ->
              sp name (fun () ->
                  (Difftest.run_case_clients env.Engine.diff_env [ c ] ~domain
                     certs)
                    .Difftest.results))
            client_span
        in
        { Difftest.domain; certs; results })
  in
  let advice, corrected =
    sp "recommend.advice" (fun () ->
        ( Recommend.server_advice report,
          Option.map Pem.encode_certs (Recommend.corrected_chain report) ))
  in
  sp "json.render" (fun () ->
      Json.to_string
        (Json.Obj
           [ ("domain", Json.String domain);
             ( "chain",
               Json.Obj
                 [ ("length", Json.Int (List.length certs));
                   ( "sha256",
                     Json.String (Hex.encode (Scanner.chain_fingerprint certs)) ) ] );
             ( "options",
               Json.Obj
                 [ ("store", Json.String "union"); ("aia", Json.Bool true);
                   ("clients", Json.String "all") ] );
             ("compliance", compliance_json report);
             ("difftest", difftest_json case);
             ("recommend", recommend_json advice corrected) ]))

let resolve m (c : Protocol.check) =
  let sp name f = Trace.span m.tr name f in
  let certs =
    match (c.Protocol.pem, c.Protocol.certmsg) with
    | Some pem, _ -> sp "pem.decode_certs" (fun () -> Pem.decode_certs pem)
    | None, Some b64 -> (
        match sp "base64.decode" (fun () -> Base64.decode b64) with
        | Error e -> Error e
        | Ok wire ->
            sp "certmsg.decode" (fun () ->
                match c.Protocol.format with
                | Some f -> Certmsg.decode f wire
                | None -> Certmsg.decode_auto wire)
            |> Result.map Certmsg.certs)
    | None, None -> Error "no chain source"
  in
  match (certs, c.Protocol.domain) with
  | Ok (_ :: _ as certs), Some domain -> (domain, certs)
  | Error e, _ -> failwith ("anatomy: " ^ e)
  | _ -> failwith "anatomy: frame outside the benchmark's traffic"

(* The engine's verdict key for default options. *)
let verdict_key m ~domain certs =
  Trace.span m.tr "engine.verdict_key" (fun () ->
      let fp =
        Trace.span m.tr "difftest.chain_key" (fun () ->
            Difftest.chain_key ~domain certs)
      in
      Hex.encode fp ^ "|" ^ domain ^ "|union|1|all")

(* Returns the reply and whether the verdict came from the cache. *)
let handle m frame =
  let sp name f = Trace.span m.tr name f in
  match sp "protocol.of_frame" (fun () -> Protocol.of_frame frame) with
  | Ok { Protocol.id; op = Protocol.Check c } -> (
      let domain, certs = resolve m c in
      let key = verdict_key m ~domain certs in
      match sp "lru.find" (fun () -> Lru.find m.cache key) with
      | Some verdict ->
          (sp "protocol.verdict_response" (fun () ->
               Protocol.verdict_response ~id ~verdict), true)
      | None ->
          let verdict = compute m ~domain certs in
          sp "lru.add" (fun () -> Lru.add m.cache key verdict);
          (sp "protocol.verdict_response" (fun () ->
               Protocol.verdict_response ~id ~verdict), false))
  | _ -> failwith "anatomy: frame outside the benchmark's traffic"

(* --- the replay --- *)

type result = {
  layers : (string * Trace.layer) list;  (* request path, every pass *)
  side : (string * Trace.layer) list;  (* framing and certificate parses *)
  hit_us : float;  (* Engine.handle_frame per hit *)
  miss_us : float;
  hit_residual : float;
  miss_residual : float;
  overhead_frac : float;  (* traced over untraced mirror, hit passes *)
  hit_path_build_calls : int;  (* compliance/difftest spans in hit passes *)
  mismatches : int;  (* mirror replies differing from the engine's *)
  major_collections : int;  (* during the whole replay *)
}

(* Every span the replay records, in report order, whether or not a
   workload's frames reach it: a layer never reached reads 0. *)
let span_names =
  [ "protocol.of_frame"; "pem.decode_certs"; "base64.decode"; "certmsg.decode";
    "engine.verdict_key"; "difftest.chain_key"; "lru.find"; "lru.add";
    "compliance.analyze"; "difftest.run_case" ]
  @ List.map snd client_span
  @ [ "recommend.advice"; "json.render"; "protocol.verdict_response";
      "framing.next"; "cert.of_der"; "intern.cert_of_der" ]

let every_layer r =
  let recorded = r.layers @ r.side in
  List.map
    (fun name ->
      ( name,
        Option.value (List.assoc_opt name recorded)
          ~default:
            { Trace.calls = 0; incl_ns = 0.0; self_ns = 0.0; incl_words = 0.0;
              self_words = 0.0 } ))
    span_names

let time f =
  let t0 = Trace.now_ns () in
  let v = f () in
  (v, Trace.now_ns () -. t0)

(* [fill] holds one frame per verdict key (every one a miss on an empty
   cache); [hits] is replayed [passes] times once they are cached. *)
let run ~env ~fill ~hits ~passes =
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let cap = Array.length fill + 16 in
  let mirror tr = { env; cache = Lru.create ~capacity:cap; tr } in
  let miss_tr = Trace.create () and hit_tr = Trace.create () in
  let engine = Engine.create ~env ~cache_capacity:cap () in
  let mismatches = ref 0 in
  let check a b = if not (String.equal a b) then incr mismatches in
  (* the intern table is warmed first, as a long-running server's is *)
  let quiet = Trace.create () in
  Trace.set_enabled quiet false;
  let chains =
    Array.map
      (fun f ->
        match Protocol.of_frame f with
        | Ok { Protocol.op = Protocol.Check c; _ } ->
            snd (resolve { env; cache = Lru.create ~capacity:0; tr = quiet } c)
        | _ -> failwith "anatomy: frame outside the benchmark's traffic")
      hits
  in
  let m_miss = mirror miss_tr in
  let miss_replies =
    Array.map
      (fun f ->
        let reply, hit = handle m_miss f in
        if hit then incr mismatches;
        reply)
      fill
  in
  let miss_ns = ref 0.0 in
  Array.iteri
    (fun i f ->
      let reply, dt = time (fun () -> Engine.handle_frame engine f) in
      miss_ns := !miss_ns +. dt;
      check reply miss_replies.(i))
    fill;
  (* hit passes: engine, traced mirror and untraced mirror interleaved *)
  let m_hit = { m_miss with tr = hit_tr } in
  let plain = Trace.create () in
  Trace.set_enabled plain false;
  let m_plain = { m_miss with tr = plain } in
  let hit_ns = ref 0.0 and traced_ns = ref 0.0 and plain_ns = ref 0.0 in
  for pass = 1 to passes do
    Array.iter
      (fun f ->
        let reply, dt = time (fun () -> Engine.handle_frame engine f) in
        hit_ns := !hit_ns +. dt;
        let (mine, hit), dt' = time (fun () -> handle m_hit f) in
        traced_ns := !traced_ns +. dt';
        if pass = 1 then check reply mine;
        if not hit then incr mismatches;
        let _, dt'' = time (fun () -> handle m_plain f) in
        plain_ns := !plain_ns +. dt'')
      hits
  done;
  (* side measurements: framing, and certificate parsing with the intern
     table off and on *)
  let side = Trace.create () in
  Array.iteri
    (fun i f ->
      let fr = Framing.create () in
      Trace.span side "framing.next" (fun () ->
          Framing.feed_string fr f;
          Framing.feed_string fr "\n";
          ignore (Framing.next fr));
      let ders = List.map Cert.to_der chains.(i) in
      List.iter
        (fun der -> ignore (Trace.span side "cert.of_der" (fun () -> Cert.of_der der)))
        ders;
      List.iter
        (fun der ->
          ignore
            (Trace.span side "intern.cert_of_der" (fun () -> Intern.cert_of_der der)))
        ders)
    hits;
  Engine.shutdown engine;
  let path_build =
    List.fold_left
      (fun acc (name, (l : Trace.layer)) ->
        if name = "compliance.analyze" || name = "difftest.run_case" then
          acc + l.Trace.calls
        else acc)
      0 (Trace.layers hit_tr)
  in
  let merged =
    let tbl = Hashtbl.create 32 and order = ref [] in
    List.iter
      (fun (name, (l : Trace.layer)) ->
        match Hashtbl.find_opt tbl name with
        | None -> Hashtbl.add tbl name l; order := name :: !order
        | Some (a : Trace.layer) ->
            Hashtbl.replace tbl name
              { Trace.calls = a.calls + l.calls; incl_ns = a.incl_ns +. l.incl_ns;
                self_ns = a.self_ns +. l.self_ns;
                incl_words = a.incl_words +. l.incl_words;
                self_words = a.self_words +. l.self_words })
      (Trace.layers miss_tr @ Trace.layers hit_tr);
    List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order
  in
  let n_fill = Float.of_int (Array.length fill) in
  let n_hit = Float.of_int (passes * Array.length hits) in
  { layers = merged; side = Trace.layers side;
    hit_us = !hit_ns /. n_hit /. 1000.0;
    miss_us = !miss_ns /. n_fill /. 1000.0;
    hit_residual = Arith.residual ~total:!hit_ns ~parts:[ Trace.total_self_ns hit_tr ];
    miss_residual =
      Arith.residual ~total:!miss_ns ~parts:[ Trace.total_self_ns miss_tr ];
    overhead_frac = (!traced_ns /. !plain_ns) -. 1.0;
    hit_path_build_calls = path_build; mismatches = !mismatches;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 }
