open Chaoschain_x509
module Prng = Chaoschain_crypto.Prng
module Certmsg = Chaoschain_tlssim.Certmsg

type vantage = { name : string; reached : int; unreachable : int }

type dataset = {
  vantages : vantage list;
  domains : (string * Cert.t list) array;
  chain_fps : string array;
  flags : int array;
  unique_chains : int;
  unique_certs : int;
  tls12_tls13_identical_pct : float;
}

let flag_us = 1
let flag_au = 2
let flag_identical = 4

(* Loss rates chosen to reproduce the paper's per-vantage totals:
   870,113 / 906,336 and 867,374 / 906,336. *)
let loss_us = 1.0 -. (870_113.0 /. 906_336.0)
let loss_au = 1.0 -. (867_374.0 /. 906_336.0)

let chain_fingerprint certs =
  Chaoschain_crypto.Sha256.digest (String.concat "" (List.map Cert.fingerprint certs))

(* The sequential reduce, shared by the live scan and corpus replay:
   vantage totals, chain fingerprints and the dedup tables. *)
let dataset_of obs =
  let n = Array.length obs in
  let reached_us = ref 0 and reached_au = ref 0 and identical = ref 0 in
  let chain_tbl = Hashtbl.create (2 * n) and cert_tbl = Hashtbl.create (4 * n) in
  let chain_fps =
    Array.map
      (fun (_, flags, certs) ->
        if flags land flag_us <> 0 then incr reached_us;
        if flags land flag_au <> 0 then incr reached_au;
        if flags land flag_identical <> 0 then incr identical;
        let fp = chain_fingerprint certs in
        Hashtbl.replace chain_tbl fp ();
        List.iter (fun c -> Hashtbl.replace cert_tbl (Cert.fingerprint c) ()) certs;
        fp)
      obs
  in
  { vantages =
      [ { name = "US"; reached = !reached_us; unreachable = n - !reached_us };
        { name = "AU"; reached = !reached_au; unreachable = n - !reached_au } ];
    domains = Array.map (fun (d, _, certs) -> (d, certs)) obs;
    chain_fps;
    flags = Array.map (fun (_, flags, _) -> flags) obs;
    unique_chains = Hashtbl.length chain_tbl;
    unique_certs = Hashtbl.length cert_tbl;
    tls12_tls13_identical_pct = 100.0 *. float_of_int !identical /. float_of_int n }

let scan ?(jobs = 1) ?(format = Certmsg.Tls12) (p : Population.t) =
  (* The parallel stage: per-shard PRNG streams (derived from the shard index,
     never from a shared generator) decide reachability and TLS 1.2/1.3
     agreement, and every chain takes BOTH wire round-trips — the TLS 1.2
     bare certificate_list and the TLS 1.3 per-entry framing — exactly what
     a dual-version ZGrab would have received. The two decodes must agree
     certificate-for-certificate (a codec divergence here is a bug, not
     noise); [format] selects which framing's parse populates the dataset.
     The shard plan depends only on the population size, so the dataset is
     byte-identical for every [jobs] — and for either [format]. *)
  Pipeline.map_shards ~jobs
    (fun ~shard slice ->
      let rng = Prng.of_label (Shard.label ~base:"scanner" shard) in
      Array.map
        (fun r ->
          let us = not (Prng.bernoulli rng loss_us) in
          let au = not (Prng.bernoulli rng loss_au) in
          (* 98.8% of dual-stack domains answer TLS 1.2 and 1.3 identically;
             the simulation serves the same chain on both, minus the same
             noise the paper attributes to version-specific frontends. *)
          let identical = Prng.bernoulli rng 0.988 in
          let decode fmt =
            let wire = Certmsg.encode (Certmsg.of_certs fmt r.Population.chain) in
            match Certmsg.decode fmt wire with
            | Ok msg -> Certmsg.certs msg
            | Error e ->
                invalid_arg
                  (Printf.sprintf "Scanner: TLS %s wire round-trip failed: %s"
                     (Certmsg.format_to_string fmt) e)
          in
          let c12 = decode Certmsg.Tls12 and c13 = decode Certmsg.Tls13 in
          if not (List.equal Cert.equal c12 c13) then
            invalid_arg "Scanner: TLS 1.2 and 1.3 decodes disagree";
          let certs = match format with Certmsg.Tls12 -> c12 | Certmsg.Tls13 -> c13 in
          let flags =
            (if us then flag_us else 0)
            lor (if au then flag_au else 0)
            lor if identical then flag_identical else 0
          in
          (r.Population.domain, flags, certs))
        slice)
    p.Population.domains
  |> dataset_of
