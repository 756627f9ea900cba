type algorithm = Rsa_2048 | Rsa_4096 | Ecdsa_p256 | Ecdsa_p384 | Rsa_1024

let algorithm_to_string = function
  | Rsa_2048 -> "RSA-2048"
  | Rsa_4096 -> "RSA-4096"
  | Ecdsa_p256 -> "ECDSA-P256"
  | Ecdsa_p384 -> "ECDSA-P384"
  | Rsa_1024 -> "RSA-1024"

let algorithm_deprecated = function Rsa_1024 -> true | _ -> false

let signature_oid_name = function
  | Rsa_2048 | Rsa_4096 -> "sha256WithRSAEncryption"
  | Rsa_1024 -> "sha1WithRSAEncryption"
  | Ecdsa_p256 -> "ecdsa-with-SHA256"
  | Ecdsa_p384 -> "ecdsa-with-SHA384"

type public_key = { alg : algorithm; material : string; fp : string }
type private_key = { public : public_key; secret : string }
type signature = { sig_alg : algorithm; sig_bytes : string }

(* The fingerprint is part of every signature and verification, so it is
   hashed once, when the key is made. *)
let make_public alg material = { alg; material; fp = Sha256.digest material }

let material_size = function
  | Rsa_1024 -> 128
  | Rsa_2048 -> 256
  | Rsa_4096 -> 512
  | Ecdsa_p256 -> 65
  | Ecdsa_p384 -> 97

let import_public alg material =
  if String.length material <> material_size alg then
    Error
      (Printf.sprintf "key material length %d does not match %s"
         (String.length material) (algorithm_to_string alg))
  else Ok (make_public alg material)

let generate rng alg =
  let material = Prng.bytes rng (material_size alg) in
  (* The "secret" is derived but never exposed; only sign uses it. *)
  let secret = Sha256.digest ("secret:" ^ material) in
  { public = make_public alg material; secret }

let public_of_private priv = priv.public
let fingerprint pub = pub.fp
let key_id pub = String.sub (fingerprint pub) 0 20

let sign priv msg =
  ignore priv.secret;
  { sig_alg = priv.public.alg;
    sig_bytes = Sha256.digest (msg ^ priv.public.fp) }

let verify pub msg s =
  s.sig_alg = pub.alg && String.equal s.sig_bytes (Sha256.digest (msg ^ pub.fp))

let forge_garbage rng alg = { sig_alg = alg; sig_bytes = Prng.bytes rng 32 }

let equal_public a b = a.alg = b.alg && String.equal a.material b.material

let pp_public ppf pub =
  Format.fprintf ppf "%s key %s…" (algorithm_to_string pub.alg)
    (String.sub (Hex.encode (fingerprint pub)) 0 16)
