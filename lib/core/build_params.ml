type validity_priority = VP_none | VP_first_valid | VP_recent_longest

type kid_priority = KP_none | KP1 | KP2

type length_limit = Unlimited | Max_constructed of int | Max_input_list of int

type revocation_mode = No_revocation | During_construction | During_validation

type t = {
  reorder : bool;
  aia_fetch : bool;
  intermediate_cache : bool;
  validity_priority : validity_priority;
  kid_priority : kid_priority;
  ku_priority : bool;
  bc_priority : bool;
  prefer_trusted_root : bool;
  prefer_self_signed : bool;
  check_sig_alg : bool;
  length_limit : length_limit;
  allow_self_signed_leaf : bool;
  backtracking : bool;
  partial_validation : bool;
  revocation : revocation_mode;
  max_attempts : int;
}

let default =
  {
    reorder = true;
    aia_fetch = true;
    intermediate_cache = false;
    validity_priority = VP_recent_longest;
    kid_priority = KP2;
    ku_priority = true;
    bc_priority = true;
    prefer_trusted_root = true;
    prefer_self_signed = true;
    check_sig_alg = true;
    length_limit = Unlimited;
    allow_self_signed_leaf = false;
    backtracking = true;
    partial_validation = false;
    revocation = During_validation;
    max_attempts = 64;
  }

let rfc4158 = default
