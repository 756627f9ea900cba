(** In-memory span recorder for the in-process request anatomy.

    Each span carries a name, start and end (monotonic ns), the span that
    caused it and the minor-heap words allocated while it was open. Spans
    live in growable arrays and are summarised once the traced pass is
    over. *)

type t

val create : unit -> t

val set_enabled : t -> bool -> unit
(** Disabled, {!span} is a plain call: the untraced baseline for the
    tracing-overhead figure. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span (nested under the innermost open
    one). An exception closes the span and propagates. *)

val now_ns : unit -> float

type layer = {
  calls : int;
  incl_ns : float;       (** summed duration *)
  self_ns : float;       (** summed duration minus covered child time *)
  incl_words : float;    (** summed minor words allocated inside *)
  self_words : float;    (** minus the children's *)
}

val layers : t -> (string * layer) list
(** Per span name, in first-seen order. *)

val total_self_ns : t -> float
(** Sum of every span's self time: the wall time covered by the spans. *)
