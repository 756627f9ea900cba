module Framing = Chaoschain_net.Framing

module type S = sig
  type conn

  val recv : conn -> block:bool -> [ `Frame of string | `Empty | `Eof | `Overlong ]
  val send : conn -> string -> unit
end

module Fd = struct
  type conn = {
    fd : Unix.file_descr;
    out : out_channel;
    framing : Framing.t;  (* every line decision is made here *)
    chunk : Bytes.t;
    mutable broken : bool
        (* the write side died (EPIPE/ECONNRESET): drop further sends and
           report EOF so the serve loop winds down this conversation *)
  }

  let make ?(max_frame = Framing.default_max_frame) fd out =
    { fd; out; framing = Framing.create ~max_frame ();
      chunk = Bytes.create 4096; broken = false }

  let stdio ?max_frame () = make ?max_frame Unix.stdin stdout

  let readable fd =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  (* Read one chunk into the framer; [false] when an interrupted
     non-blocking read made no progress. *)
  let rec fill c ~block =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 ->
        Framing.eof c.framing;
        true
    | n ->
        Framing.feed c.framing c.chunk 0 n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        block && fill c ~block
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        (* the peer vanished mid-read: treat as end-of-stream, not a crash *)
        Framing.eof c.framing;
        true

  let rec recv c ~block =
    if c.broken then `Eof
    else
      match Framing.next c.framing with
      | (`Frame _ | `Overlong | `Eof) as r -> r
      | `Await ->
          if (block || readable c.fd) && fill c ~block then recv c ~block
          else `Empty

  (* One reply, written straight to the descriptor (the out_channel is kept
     only to name it). A peer that disconnected mid-conversation surfaces
     here as EPIPE/ECONNRESET (with SIGPIPE ignored): the connection is
     marked broken — recv answers [`Eof] from then on and later sends are
     dropped — instead of the write killing the process. EINTR retries. *)
  let send c frame =
    if not c.broken then begin
      let fd = Unix.descr_of_out_channel c.out in
      let line = frame ^ "\n" in
      let len = String.length line in
      let rec write off =
        if off < len then
          match Unix.write_substring fd line off (len - off) with
          | n -> write (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
          | exception
              Unix.Unix_error
                ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
              c.broken <- true
      in
      write 0
    end
end

module Mem = struct
  type conn = {
    mutable input : string list;
    mutable sent : string list;
    max_frame : int;
  }

  let make ?(max_frame = Framing.default_max_frame) input =
    { input; sent = []; max_frame }

  let output c = List.rev c.sent

  let recv c ~block:_ =
    match c.input with
    | [] -> `Eof
    | frame :: rest ->
        c.input <- rest;
        if String.length frame > c.max_frame then `Overlong else `Frame frame

  let send c frame = c.sent <- frame :: c.sent
end
