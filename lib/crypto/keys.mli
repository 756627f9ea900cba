(** Simulated public-key cryptography.

    The paper's chain-construction logic never performs bignum arithmetic; it
    only consumes the predicate "does certificate A's public key verify
    certificate B's signature" plus signature-algorithm metadata (OpenSSL
    consults algorithm compatibility when ranking candidate issuers). This
    module provides exactly those semantics with a hash-based stand-in:

    {v sign(priv, msg)        = SHA-256(msg || fingerprint(priv.public))
       verify(pub, msg, sig)  = constant-time-irrelevant recomputation v}

    A signature verifies under a public key iff it was produced by the
    matching private key over the identical message bytes, which is the
    property path building relies on. The substitution is documented in
    DESIGN.md. *)

type algorithm =
  | Rsa_2048
  | Rsa_4096
  | Ecdsa_p256
  | Ecdsa_p384
  | Rsa_1024  (** deprecated strength, used for DEPRECATED_CRYPTO scenarios *)

val algorithm_deprecated : algorithm -> bool
(** [true] only for {!Rsa_1024}. *)

val signature_oid_name : algorithm -> string
(** The signature-algorithm identifier a certificate signed by a key of this
    type carries, e.g. ["sha256WithRSAEncryption"]. *)

type public_key = private { alg : algorithm; material : string; fp : string }
(** Public half; [material] is opaque simulated key material whose SHA-256
    fingerprint [fp] identifies the key. [fp] is computed once, when the key
    is generated or imported. *)

type private_key
(** Secret half; kept abstract so signatures can only be minted through
    {!sign}. *)

type signature = { sig_alg : algorithm; sig_bytes : string }
(** A detached signature value. *)

val generate : Prng.t -> algorithm -> private_key
(** Deterministically generate a key pair from the given stream. *)

val import_public : algorithm -> string -> (public_key, string) result
(** Reconstruct a public key from its algorithm and raw material, validating
    the material length; used when decoding certificates from DER. *)

val public_of_private : private_key -> public_key

val fingerprint : public_key -> string
(** 32-byte SHA-256 fingerprint of the public key material. *)

val key_id : public_key -> string
(** 20-byte key identifier (truncated fingerprint), the value carried by SKID
    and referenced by AKID, per RFC 5280 section 4.2.1.2 method (1). *)

val sign : private_key -> string -> signature
(** [sign priv msg] produces a signature over exactly the bytes of [msg]. *)

val verify : public_key -> string -> signature -> bool
(** [verify pub msg s] holds iff [s] was produced by the private key matching
    [pub] over exactly [msg]. *)

val forge_garbage : Prng.t -> algorithm -> signature
(** A syntactically valid signature that verifies under no key; used by test
    chains that must fail the cryptographic criterion. *)

val equal_public : public_key -> public_key -> bool
val pp_public : Format.formatter -> public_key -> unit
