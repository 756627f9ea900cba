(** The issuance-topology graph of a server-provided certificate list
    (section 3.1 of the paper).

    Certificates are laid out in server order; bit-for-bit duplicates collapse
    onto the first occurrence (relabelled [Cp\[i\]] as in Figure 2d); edges
    follow the paper's flexible issuance relation. All order and completeness
    analyses run over this graph. *)

open Chaoschain_x509

type node = {
  index : int;             (** position of the first occurrence in the list *)
  cert : Cert.t;
  occurrences : int list;  (** every list position holding this certificate *)
}

type t

val build : Cert.t list -> t
(** Raises [Invalid_argument] on an empty list. *)

val certs : t -> Cert.t list
(** The original list, verbatim. *)

val nodes : t -> node list
(** Unique certificates in first-occurrence order. *)

val node_count : t -> int
val list_length : t -> int

val duplicates : t -> node list
(** Nodes appearing more than once. *)

val leaf : t -> node
(** The node at list position 0 — the server's claimed leaf. *)

val paths : t -> node list list
(** All maximal simple paths that start at {!leaf} and follow issuer edges.
    A path stops extending at a self-signed certificate or when every issuer
    candidate already occurs on the path (cross-sign cycles terminate
    cleanly, per the CVE-2024-0567 concern). Paths are returned leaf first. *)

val reachable_from_leaf : t -> node list
(** Nodes on at least one leaf path (including the leaf). *)

val irrelevant : t -> node list
(** Nodes unreachable from the leaf — the paper's irrelevant certificates. *)

val render : t -> string
(** ASCII rendering in the style of Figure 2: one line of labelled nodes plus
    one line per issuance edge. *)
