module Keys = Chaoschain_crypto.Keys

type kid_status = Kid_match | Kid_absent | Kid_mismatch

let kid_status_to_string = function
  | Kid_match -> "match"
  | Kid_absent -> "absent"
  | Kid_mismatch -> "mismatch"

let kid_status ~issuer ~child =
  match (Cert.subject_key_id issuer, Cert.authority_key_id child) with
  | Some skid, Some { Extension.akid_key_id = Some akid; _ } ->
      if String.equal skid akid then Kid_match else Kid_mismatch
  | _ -> Kid_absent

let name_chains ~issuer ~child = Dn.equal (Cert.subject issuer) (Cert.issuer child)

(* Signature checks dominate large-corpus runs (every check hashes the
   child's TBS); the verdict for a given (issuer, child) pair never changes,
   so memoize on the pair of fingerprints.  Every Domain that builds paths
   (serve workers and shards, the measurement pool) shares the memo, so it is
   sharded by the child's fingerprint with one mutex per shard, like the
   intern table; verification runs outside the lock.  A shard is reset when
   it holds its share of the 1M-entry bound. *)
let memo_shards = 64
let memo_shard_limit = 1_000_000 / memo_shards

type memo_shard = { lock : Mutex.t; table : (string, bool) Hashtbl.t }

let sig_memo =
  Array.init memo_shards (fun _ -> { lock = Mutex.create (); table = Hashtbl.create 64 })

let signature_ok ~issuer ~child =
  let child_fp = Cert.fingerprint child in
  let key = Cert.fingerprint issuer ^ child_fp in
  let shard = sig_memo.(Char.code child_fp.[0] land (memo_shards - 1)) in
  Mutex.lock shard.lock;
  let hit = Hashtbl.find_opt shard.table key in
  Mutex.unlock shard.lock;
  match hit with
  | Some v -> v
  | None ->
      let v =
        Keys.verify (Cert.public_key issuer) (Cert.tbs_der child) (Cert.signature child)
      in
      Mutex.lock shard.lock;
      if Hashtbl.length shard.table >= memo_shard_limit then Hashtbl.reset shard.table;
      Hashtbl.replace shard.table key v;
      Mutex.unlock shard.lock;
      v

let sig_alg_compatible ~issuer ~child =
  let issuer_alg = (Cert.public_key issuer).Keys.alg in
  let child_sig = Cert.sig_alg child in
  match (issuer_alg, child_sig) with
  | (Keys.Rsa_1024 | Keys.Rsa_2048 | Keys.Rsa_4096),
    (Keys.Rsa_1024 | Keys.Rsa_2048 | Keys.Rsa_4096) -> true
  | Keys.Ecdsa_p256, Keys.Ecdsa_p256 | Keys.Ecdsa_p384, Keys.Ecdsa_p384 -> true
  | _ -> false

let issued ~issuer ~child =
  signature_ok ~issuer ~child
  && (name_chains ~issuer ~child || kid_status ~issuer ~child = Kid_match)

let issued_by_name ~issuer ~child =
  name_chains ~issuer ~child || kid_status ~issuer ~child = Kid_match
