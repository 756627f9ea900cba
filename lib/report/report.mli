(** Typed report IR for the experiment suite.

    Reports are trees of blocks — typed-cell tables, lines of interleaved
    literal text and cells, raw narrative text — rendered by {!to_text}
    (the CLI's ASCII bodies, byte-identical to the sprintf strings this IR
    replaced), {!to_json} ([--format json], chaind stats) and {!to_markdown}
    (EXPERIMENTS.md). Cells optionally carry the paper's reported value and
    a tolerance, which powers {!check_paper} ([--check-paper]) and {!diff}
    ([chaoscheck diff]). *)

module Json = Json
(** The shared JSON codec lives here; [Chaoschain_service.Json] re-exports
    it. *)

module Cell : sig
  type value =
    | Count of int  (** thousands separators: ["16,952"] *)
    | Int of int  (** plain digits *)
    | Percent of { num : int; den : int }
        (** ["92.5%"]; ["~0%"] for tiny non-zero shares; ["n/a"] when the
            denominator is zero *)
    | Count_pct of { num : int; den : int }  (** ["838,354 (92.5%)"] *)
    | Float of { value : float; digits : int; suffix : string }
    | Text of string
    | Verdict of { v : bool; yes : string; no : string }

  val with_commas : int -> string
  val pct_string : int -> int -> string
  val count_pct_string : int -> int -> string

  val render : value -> string
end

(** {1 Cells and paper references} *)

type check =
  | Same_text of string
      (** the measured rendering must equal the paper's exactly (Table 9) *)
  | Near_pct of { pct : float; tol : float }
      (** the measured percentage must be within [tol] percentage points of
          the paper's. Percentages are the scale-invariant quantity of the
          quota-sampled population; absolute paper counts are display-only. *)

type paper = { shown : string; check : check option }
type cell = { value : Cell.value; paper : paper option }

val cell : Cell.value -> cell
val text : string -> cell
val count : int -> cell
val int : int -> cell
val percent : num:int -> den:int -> cell
val count_pct : num:int -> den:int -> cell
val verdict : bool -> yes:string -> no:string -> cell

val paper : ?check:check -> string -> cell -> cell
(** Attach a display-only (or explicitly checked) paper reference. *)

val near : paper:string -> pct:float -> tol:float -> cell -> cell
(** Attach a [Near_pct] check: [paper] is the displayed string, [pct] the
    paper's percentage, [tol] the tolerance in percentage points. *)

val same_text : paper:string -> cell -> cell
(** Attach a [Same_text] check. A mismatch renders inline as
    ["measured (paper: want)"] — the Table 9 convention. *)

val cell_text : cell -> string
(** The cell as the text renderer prints it. *)

(** {1 Blocks} *)

type span =
  | S of string
  | C of cell
  | Cw of int * cell
      (** printf field width: [Cw w] right-justifies in [w] columns, negative
          [w] left-justifies (like [%*s] / [%-*s]) *)

type row = Row of cell list | Sep
type table = { t_title : string; t_header : string list; t_rows : row list }
type block = Table of table | Line of span list | Raw of string

type t = { id : string; title : string; blocks : block list }

module Table : sig
  type builder

  val create : title:string -> header:string list -> builder
  val row : builder -> cell list -> unit
  val sep : builder -> unit
  val table : builder -> table
  val block : builder -> block
end

val line : span list -> block
(** One text line; the text renderer appends ["\n"]. *)

val raw : string -> block
(** Pre-rendered text, emitted verbatim. *)

(** {1 Renderers} *)

val render_table : table -> string
(** Column-aligned ASCII with a title banner (the former [Stats.render]). *)

val to_text : t -> string
val to_json : t -> Json.t

val md_escape : string -> string
(** Escape pipe characters for GFM table cells. *)

val to_markdown : t -> string

(** {1 Structured access} *)

val flatten : t -> (string * cell) list
(** Every cell with a stable path like ["table3/yes#2/# domains (measured)"]
    (report id / row-or-line label, [#n]-disambiguated on repetition / column
    header). Raw blocks flatten to one text cell each. *)

type delta = { d_path : string; d_a : string option; d_b : string option }

val diff : t list -> t list -> delta list
(** Per-cell differences between two report lists, in [a]'s path order
    ([b]-only paths last). [None] on a side means the path is absent there. *)

type deviation = { dev_path : string; dev_expected : string; dev_actual : string }

val check_paper : t list -> deviation list
(** Walk every cell carrying a paper check; empty means every measured value
    is within tolerance of (or textually equal to) the paper's. *)

val checked_cell_count : t list -> int

val inject_deviation : t list -> t list
(** Perturb the first tolerance-checked cell far outside its tolerance — the
    CI hook proving [--check-paper] fails (non-zero exit, named cell) on a
    real deviation. *)
