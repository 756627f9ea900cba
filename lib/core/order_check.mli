(** Issuance-order compliance (section 4.2 / Table 5).

    A chain violates the ordering requirement when it contains duplicates,
    certificates irrelevant to the leaf, more than one candidate path, or a
    path in which an issuer appears before its subject. One chain can exhibit
    several violation types at once, as in the paper's overlapping counts. *)


type duplicate_kind = Dup_leaf | Dup_intermediate | Dup_root

type irrelevant_kind =
  | Irr_extra_leaf       (** a second, distinct leaf-like certificate *)
  | Irr_self_signed      (** an unconnected self-signed (root) certificate *)
  | Irr_foreign_chain    (** irrelevant certs with issuance relations among
                             themselves — (part of) another chain *)
  | Irr_lone             (** a single unconnected intermediate *)

type report = {
  duplicates : (duplicate_kind * Topology.node) list;
  irrelevant : (irrelevant_kind * Topology.node) list;
  path_count : int;
  multiple_paths : bool;
  cross_sign_paths : bool;    (** multiple paths caused by same-subject,
                                  same-SKID, different-issuer certificates *)
  reversed_paths : int;       (** paths containing an inversion *)
  all_paths_reversed : bool;
  ordered : bool;             (** the overall Table 5 verdict: no violation *)
}

val analyze : Topology.t -> report

val has_duplicates : report -> bool
val has_irrelevant : report -> bool
val has_reversed : report -> bool

val violations : report -> string list
(** Human-readable violation list, empty when [ordered]. *)
