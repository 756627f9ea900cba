(** A miniature TLS handshake between a configured server and one of the
    modelled clients, surfacing the availability outcomes the paper
    discusses: libraries abort the connection, browsers interpose a warning
    page, and users may fall back to insecure HTTP.

    The handshake negotiates the protocol version — and with it the
    Certificate-message wire framing — from the server's [supports] list and
    the client's {!Clients.t.supported_formats}; a version either side
    cannot speak yields a refused transcript with no Certificate message at
    all. *)

open Chaoschain_x509
open Chaoschain_core

type version = Certmsg.format = Tls12 | Tls13
(** Protocol versions are identified with their Certificate-message
    framings; the constructors are interchangeable with
    {!Certmsg.format}. *)

type server = {
  server_name : string;            (** SNI hostname served *)
  chain : Cert.t list;             (** the certificate list it will send *)
  supports : version list;
}

val server : name:string -> chain:Cert.t list -> server
(** A server speaking both protocol versions. *)

type user_outcome =
  | Connection_established          (** TLS succeeds *)
  | Connection_refused of string    (** library clients: handshake aborted *)
  | Warning_page of string          (** browser clients: interstitial shown *)

val outcome_to_string : user_outcome -> string

type transcript = {
  version : version;                (** the negotiated protocol version *)
  format : Certmsg.format;
      (** the Certificate-message framing actually used on the wire (always
          the negotiated version's framing) *)
  certificate_msg_bytes : int;
      (** size of the Certificate message; 0 when the handshake was refused
          before one was sent *)
  client_outcome : user_outcome;
  engine : Engine.outcome option;
      (** [None] when version negotiation failed: no chain was processed *)
}

val connect :
  Difftest.env -> client:Clients.t -> ?version:version -> server -> transcript
(** Run ClientHello → ServerHello → Certificate → client-side chain
    processing. The Certificate message is actually encoded and re-parsed
    through {!Certmsg} in the negotiated format, so the client sees exactly
    the wire bytes. Omitting [version] negotiates the highest version both
    sides support; requesting one the server does not offer, or whose
    framing the client does not implement, returns a
    [Connection_refused] transcript (engine [None]) instead of raising. *)

val availability_impact : Difftest.env -> server -> (Clients.t * user_outcome) list
(** The paper's service-availability view: every client's user outcome. *)
