open Chaoschain_x509
open Chaoschain_core
open Chaoschain_pki
module Store = Chaoschain_store.Store
module Wire = Chaoschain_store.Frame.Wire

(* Record encodings (all payloads little-endian via [Wire]):

   observation (version 1):
     u8 version, str domain, u8 flags, u32 n, n * 32-byte fingerprints

   environment (version 1), one record per entry, tagged:
     tag 0  root store: u8 slot (0-3 = programs, 4 = union), str name, fps
     tag 1  AIA entry: str uri, u8 kind (0 cert / 1 not-found / 2 timeout),
            fingerprint if kind = 0
     tag 2  Firefox intermediate cache: fps
     tag 3  OS intermediate store: fps
     tag 4  timestamp: u16 year, u8 month/day/hh/mm/ss

   Environment records are written in a fixed order (stores by slot, AIA
   sorted by URI, caches, timestamp) so the segment bytes never depend on
   hash-table iteration order. *)

let version = 1
let fp_len = 32

let tag_store = 0
let tag_aia = 1
let tag_firefox = 2
let tag_os = 3
let tag_now = 4

let union_slot = 4

let slot_of_program p =
  match p with
  | Root_store.Mozilla -> 0
  | Root_store.Chrome -> 1
  | Root_store.Microsoft -> 2
  | Root_store.Apple -> 3

type summary = { s_records : int; s_certs : int; s_root_hex : string }

let save ~dir (analysis : Experiments.analysis) =
  let pop = analysis.Experiments.pop in
  let view = analysis.Experiments.view in
  let dataset = view.Experiments.v_dataset and env = view.Experiments.v_env in
  let w = Store.create dir in
  let certs_seen = Hashtbl.create 1024 in
  let add_cert c =
    let fp = Store.add_cert w (Cert.to_der c) in
    Hashtbl.replace certs_seen fp ();
    fp
  in
  let put_fps b certs =
    let fps = List.map add_cert certs in
    Wire.u32 b (List.length fps);
    List.iter (Buffer.add_string b) fps
  in
  (* Observations, in dataset order. *)
  Array.iteri
    (fun i (domain, certs) ->
      let b = Buffer.create 256 in
      Wire.u8 b version;
      Wire.str b domain;
      Wire.u8 b dataset.Scanner.flags.(i);
      put_fps b certs;
      Store.add_obs w (Buffer.contents b))
    dataset.Scanner.domains;
  (* Environment, in fixed order. *)
  let add_env f =
    let b = Buffer.create 256 in
    Wire.u8 b version;
    f b;
    Store.add_env w (Buffer.contents b)
  in
  let put_store b ~slot st =
    Wire.u8 b tag_store;
    Wire.u8 b slot;
    Wire.str b (Root_store.name st);
    put_fps b (Root_store.certs st)
  in
  List.iter
    (fun p ->
      add_env (fun b ->
          put_store b ~slot:(slot_of_program p) (env.Difftest.store_of p)))
    Root_store.all_programs;
  add_env (fun b ->
      put_store b ~slot:union_slot
        (Universe.union_store pop.Population.universe));
  List.iter
    (fun (uri, entry) ->
      add_env (fun b ->
          Wire.u8 b tag_aia;
          Wire.str b uri;
          match entry with
          | `Cert c ->
              Wire.u8 b 0;
              Buffer.add_string b (add_cert c)
          | `Not_found -> Wire.u8 b 1
          | `Timeout -> Wire.u8 b 2))
    (Aia_repo.entries env.Difftest.aia);
  add_env (fun b ->
      Wire.u8 b tag_firefox;
      put_fps b env.Difftest.firefox_cache);
  add_env (fun b ->
      Wire.u8 b tag_os;
      put_fps b env.Difftest.os_store);
  add_env (fun b ->
      Wire.u8 b tag_now;
      let y, m, d = Vtime.ymd env.Difftest.now in
      let hh, mm, ss = Vtime.hms env.Difftest.now in
      Wire.u16 b y;
      Wire.u8 b m;
      Wire.u8 b d;
      Wire.u8 b hh;
      Wire.u8 b mm;
      Wire.u8 b ss);
  let root_hex = Store.close w ~scale:pop.Population.scale in
  {
    s_records = Array.length dataset.Scanner.domains;
    s_certs = Hashtbl.length certs_seen;
    s_root_hex = root_hex;
  }

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type loaded = {
  l_dataset : Scanner.dataset;
  l_env : Difftest.env;
  l_union_store : Root_store.t;
  l_scale : float;
  l_records : int;
  l_certs : int;
  l_root_hex : string;
}

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Light payload walk collecting every certificate fingerprint the
   observation and environment records reference — no certificate
   decoding, no env reconstruction. This is the liveness set segment
   compaction keeps. *)
let referenced_fps st =
  let tbl = Hashtbl.create 1024 in
  let add_fps c =
    let n = Wire.r_u32 c in
    for _ = 1 to n do
      Hashtbl.replace tbl (Wire.r_fixed c fp_len) ()
    done
  in
  Array.iter
    (fun payload ->
      let c = Wire.cursor payload in
      ignore (Wire.r_u8 c : int);
      ignore (Wire.r_str c : string);
      ignore (Wire.r_u8 c : int);
      add_fps c)
    (Store.observations st);
  Array.iter
    (fun payload ->
      let c = Wire.cursor payload in
      ignore (Wire.r_u8 c : int);
      let tag = Wire.r_u8 c in
      if tag = tag_store then begin
        ignore (Wire.r_u8 c : int);
        ignore (Wire.r_str c : string);
        add_fps c
      end
      else if tag = tag_aia then begin
        ignore (Wire.r_str c : string);
        if Wire.r_u8 c = 0 then Hashtbl.replace tbl (Wire.r_fixed c fp_len) ()
      end
      else if tag = tag_firefox || tag = tag_os then add_fps c)
    (Store.env_entries st);
  tbl

let load ?(jobs = 1) ?(use_index = true) dir =
  match Pipeline.with_par ~jobs (fun par -> Store.open_ ~par ~use_index dir) with
  | Error e -> Error e
  | Ok st -> (
      try
        (* Every certificate decodes through [Intern], so replay shares
           parsed certificates exactly like the live wire-decode path. *)
        let by_fp = Hashtbl.create (Store.cert_count st) in
        let cert_of_fp fp =
          match Hashtbl.find_opt by_fp fp with
          | Some c -> c
          | None -> (
              match Store.find_cert st fp with
              | None ->
                  fail "corpus: dangling certificate reference %s"
                    (Chaoschain_crypto.Hex.encode fp)
              | Some der -> (
                  match Intern.cert_of_der der with
                  | Ok c ->
                      Hashtbl.add by_fp fp c;
                      c
                  | Error e -> fail "corpus: certificate does not decode: %s" e))
        in
        let r_fps c =
          let n = Wire.r_u32 c in
          List.init n (fun _ -> cert_of_fp (Wire.r_fixed c fp_len))
        in
        let r_version c =
          let v = Wire.r_u8 c in
          if v <> version then fail "corpus: unsupported record version %d" v
        in
        (* Observations. *)
        let obs =
          Array.map
            (fun payload ->
              let c = Wire.cursor payload in
              r_version c;
              let domain = Wire.r_str c in
              let flags = Wire.r_u8 c in
              let certs = r_fps c in
              if not (Wire.at_end c) then
                fail "corpus: trailing bytes in observation record";
              (domain, flags, certs))
            (Store.observations st)
        in
        (* Environment. *)
        let stores = Array.make 5 None in
        let aia = Aia_repo.create () in
        let firefox = ref None and os = ref None and now = ref None in
        Array.iter
          (fun payload ->
            let c = Wire.cursor payload in
            r_version c;
            let tag = Wire.r_u8 c in
            if tag = tag_store then begin
              let slot = Wire.r_u8 c in
              let name = Wire.r_str c in
              if slot > union_slot then fail "corpus: bad store slot %d" slot;
              stores.(slot) <- Some (Root_store.make name (r_fps c))
            end
            else if tag = tag_aia then begin
              let uri = Wire.r_str c in
              match Wire.r_u8 c with
              | 0 -> Aia_repo.publish aia ~uri (cert_of_fp (Wire.r_fixed c fp_len))
              | 1 -> Aia_repo.inject_failure aia ~uri `Not_found
              | 2 -> Aia_repo.inject_failure aia ~uri `Timeout
              | k -> fail "corpus: bad AIA entry kind %d" k
            end
            else if tag = tag_firefox then firefox := Some (r_fps c)
            else if tag = tag_os then os := Some (r_fps c)
            else if tag = tag_now then begin
              let y = Wire.r_u16 c in
              let m = Wire.r_u8 c in
              let d = Wire.r_u8 c in
              let hh = Wire.r_u8 c in
              let mm = Wire.r_u8 c in
              let ss = Wire.r_u8 c in
              now := Some (Vtime.make ~y ~m ~d ~hh ~mm ~ss ())
            end
            else fail "corpus: unknown environment tag %d" tag;
            if not (Wire.at_end c) then
              fail "corpus: trailing bytes in environment record")
          (Store.env_entries st);
        let required what = function
          | Some v -> v
          | None -> fail "corpus: environment is missing its %s record" what
        in
        let program_stores =
          Array.map
            (fun p ->
              required
                (Printf.sprintf "%s root-store" (Root_store.program_to_string p))
                stores.(slot_of_program p))
            [| Root_store.Mozilla; Root_store.Chrome; Root_store.Microsoft;
               Root_store.Apple |]
        in
        let union_store = required "union root-store" stores.(union_slot) in
        let env =
          {
            Difftest.store_of = (fun p -> program_stores.(slot_of_program p));
            aia;
            firefox_cache = required "Firefox cache" !firefox;
            os_store = required "OS store" !os;
            now = required "timestamp" !now;
          }
        in
        Ok
          {
            l_dataset = Scanner.dataset_of obs;
            l_env = env;
            l_union_store = union_store;
            l_scale = Store.scale st;
            l_records = Array.length obs;
            l_certs = Store.cert_count st;
            l_root_hex = Store.root_hex st;
          }
      with
      | Bad msg -> Error msg
      | Wire.Short -> Error "corpus: short or malformed record payload")

let analyze ?(jobs = 1) l =
  Experiments.view_of ~jobs ~store:l.l_union_store l.l_env l.l_dataset
