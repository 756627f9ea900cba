(** Framed transport for chaind: one request or response per line
    (newline-delimited JSON). The serial serve loop is written against the
    {!S} signature; there are two implementations — file descriptors
    (stdin/stdout for [chaoscheck serve]) and an in-memory queue for tests.

    Request lines are bounded: a line longer than the transport's
    [max_frame] yields [`Overlong] (once, at the point the bound is crossed)
    and is otherwise discarded without ever being buffered whole — the
    engine answers it with a structured ["overlong"] error instead of
    growing its buffer without limit. *)

module type S = sig
  type conn

  val recv : conn -> block:bool -> [ `Frame of string | `Empty | `Eof | `Overlong ]
  (** Next complete frame. With [block:false], [`Empty] means no complete
      frame is immediately available — the engine uses this to close a
      micro-batch instead of waiting for more traffic. [`Overlong] reports
      a request line past the length bound (the line itself is consumed and
      dropped). After [`Eof] the connection never yields frames again. *)

  val send : conn -> string -> unit
  (** Write one frame (the implementation appends the newline) and flush. *)
end

(** File-descriptor transport: a thin reader over
    {!Chaoschain_net.Framing}, the same state machine netd feeds, so every
    line decision — the [max_frame] bound and the discard of an overlong
    line's remaining bytes, the trailing unterminated line at EOF, sticky
    EOF — is made in one place for both front ends. [recv] feeds one read
    chunk at a time into the framer; readiness is probed with a zero-timeout
    [select], so [recv ~block:false] never blocks even though the
    descriptor is a pipe.

    Client disconnects are survivable, not fatal: [EPIPE]/[ECONNRESET] on
    either direction (and [EINTR] mid-write, which is retried) mark the
    connection closed — [recv] then reports [`Eof] and [send] becomes a
    no-op — so the serve loop winds down that conversation instead of the
    process dying. Callers that write to sockets or pipes should ignore
    [SIGPIPE] (the CLI does) so a broken pipe surfaces as [EPIPE]. *)
module Fd : sig
  include S

  val make : ?max_frame:int -> Unix.file_descr -> out_channel -> conn
  (** [max_frame] defaults to {!Chaoschain_net.Framing.default_max_frame}
      (1 MiB). *)

  val stdio : ?max_frame:int -> unit -> conn
end

(** In-memory transport for tests: a fixed list of input frames, captured
    output. Frames longer than [max_frame] yield [`Overlong]. *)
module Mem : sig
  include S

  val make : ?max_frame:int -> string list -> conn
  val output : conn -> string list
  (** Frames sent so far, in order. *)
end
