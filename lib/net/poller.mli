(** Pluggable readiness notification for the netd event loop.

    A {!t} tracks a set of file descriptors with per-descriptor read/write
    interest and reports, on {!wait}, which of them are ready — the
    level-triggered contract shared by [select(2)] and default-mode
    [epoll(7)]:

    - a descriptor registered for reading is reported readable whenever a
      read would not block (data buffered, EOF pending, or a listener with
      a connection to accept), every call until the condition is consumed;
    - a descriptor registered for writing is reported writable whenever a
      write would accept at least one byte;
    - a descriptor registered with neither interest is absent from the
      wait set (it stays known to the poller but produces no events);
    - peer hang-ups and socket errors are folded into readiness (the read
      or write that follows observes the EOF/error), never raised here.

    Two backends implement the contract:

    - [Select]: portable, pure OCaml over [Unix.select]. O(registered)
      per wait and bounded by [FD_SETSIZE] (1024 on the usual libcs).
    - [Epoll]: Linux only, via C stubs over [epoll_create1]/[epoll_ctl]/
      [epoll_wait]. O(changes) registration, O(ready) wait, bounded only
      by the process fd rlimit. {!available} reports [false] for it on
      other platforms (the stubs compile everywhere; only the Linux build
      reaches the syscalls), so callers fall back to [Select].

    Pollers are single-Domain values: each event loop owns one. *)

type backend = Select | Epoll

val available : backend -> bool
(** [Select] is always available; [Epoll] only on Linux builds. *)

val choose : [ `Auto | `Select | `Epoll ] -> (backend, string) result
(** Resolve a CLI-level preference: [`Auto] picks [Epoll] when available
    and [Select] otherwise; [`Epoll] on a platform without it is an
    [Error] naming the fallback. *)

val backend_name : backend -> string
(** ["select"] / ["epoll"]. *)

val default_max_conns : backend -> int
(** How many connections a loop on this backend can reasonably carry:
    [FD_SETSIZE] minus headroom for [Select] (960, matching the historic
    netd bound), the [RLIMIT_NOFILE] soft limit minus headroom for
    [Epoll]. Always at least 64. *)

type t

val create : backend -> t
(** Raises [Failure] if the backend is {!available}[ = false]. *)

val backend : t -> backend
val name : t -> string

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register [fd] or update its interest; idempotent. [read:false
    write:false] keeps the descriptor known but eventless (an [Epoll]
    backend deregisters it from the kernel set to avoid spurious
    hangup wakeups; it is re-added on the next interested {!set}). *)

val remove : t -> Unix.file_descr -> unit
(** Forget [fd] entirely. MUST be called before the descriptor is closed
    (a closed fd in a kernel wait set is undefined behaviour under
    [select] and unremovable under [epoll]). Unknown fds are ignored. *)

val wait : t -> timeout:float -> (Unix.file_descr * bool * bool) list
(** Block until at least one registered descriptor is ready or [timeout]
    seconds (>= 0) elapse; return [(fd, readable, writable)] for every
    ready descriptor. [timeout = 0.] polls. An empty interest set returns
    [[]] after at most [timeout]. [EINTR] returns [[]] early. *)

val registered : t -> int
(** Descriptors currently known (including eventless ones). *)

val close : t -> unit
(** Release backend resources (the epoll fd). The poller must not be
    used afterwards; double close is harmless. *)
