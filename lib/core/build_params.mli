(** The capability knobs of the parameterized chain builder.

    Every TLS implementation the paper tests is expressed as a value of
    {!t}; the knobs map one-to-one onto the capability rows of Table 9 plus
    the empirical notes of sections 3.2 and 5 (MbedTLS's forward-only
    candidate scan and partial validation, GnuTLS's input-list length limit,
    Firefox's intermediate cache, CryptoAPI's backtracking and OS
    intermediate store, Chromium's self-signed preference, OpenSSL's
    signature-algorithm check). *)

type validity_priority =
  | VP_none          (** no validity-based ranking: first listed wins *)
  | VP_first_valid   (** VP1: first currently-valid candidate *)
  | VP_recent_longest(** VP2: valid first, then most recent notBefore, then
                         longest validity period *)

type kid_priority =
  | KP_none  (** no KID-based ranking *)
  | KP1      (** match and absence tie, both above mismatch *)
  | KP2      (** match above absence above mismatch *)

type length_limit =
  | Unlimited
  | Max_constructed of int  (** certificates in the built path *)
  | Max_input_list of int   (** certificates in the server-provided list —
                                the GnuTLS semantics behind finding I-2 *)

type revocation_mode =
  | No_revocation           (** never consult CRLs *)
  | During_construction
      (** check the child's status against each candidate issuer's CRL while
          selecting, dropping candidates that reveal a revocation — the
          MbedTLS integration style from section 3.2 *)
  | During_validation       (** classic RFC 5280 step-2 checking *)

type t = {
  reorder : bool;
  (** When false, issuer candidates are only sought at later list positions
      than the current certificate (the forward-only scan that makes MbedTLS
      fail reversed chains yet pass redundancy elimination). *)
  aia_fetch : bool;
  intermediate_cache : bool;
  (** Consult the client's cached/OS intermediate store when the list has no
      candidate (Firefox's cache, CryptoAPI's Windows store). *)
  validity_priority : validity_priority;
  kid_priority : kid_priority;
  ku_priority : bool;   (** correct-or-missing KeyUsage above incorrect *)
  bc_priority : bool;   (** correct BasicConstraints/pathLen above incorrect *)
  prefer_trusted_root : bool;
  (** Rank candidates present in the trust store first (recommended by
      section 6.2; CryptoAPI and browsers behave this way). *)
  prefer_self_signed : bool;   (** Chromium's second-stage preference *)
  check_sig_alg : bool;        (** OpenSSL's algorithm-compatibility check *)
  length_limit : length_limit;
  allow_self_signed_leaf : bool;
  backtracking : bool;
  (** Try the next structurally complete path after validation fails.
      Distinct from the universal within-construction dead-end retry. *)
  partial_validation : bool;
  (** Verify the candidate's signature over the child during selection and
      drop non-verifying candidates (MbedTLS). *)
  revocation : revocation_mode;
  max_attempts : int;  (** bound on structurally complete paths explored *)
}

val default : t
(** A fully-capable reference builder: every capability on, KP2/VP2
    priorities, unlimited length, backtracking — essentially the RFC 4158
    recommendations plus section 6.2's advice. *)

val rfc4158 : t
(** Alias of {!default}, under the name used in documentation. *)
