(** Simulated network: hosts, latency, loss, partitions and RPC.

    Messages are modelled as delayed closures executed "at" the destination;
    the network charges latency, applies loss and partitions, and accounts
    traffic per category in {!Stats}. *)

type t

type latency =
  | Fixed of float
  | Uniform of float * float  (** [lo, hi) *)
  | Exponential of float  (** mean, shifted by a 1ms floor *)

type host

val create : ?seed:int64 -> ?latency:latency -> Engine.t -> t
val engine : t -> Engine.t
val stats : t -> Stats.t
val prng : t -> Oasis_util.Prng.t

val fault : t -> Fault.t
(** The network's fault plane (host crash/restart, link faults, chaos
    schedules).  Addresses passed to {!Fault} functions are
    {!host_addr}s; the wrappers below cover the common cases. *)

val trace : t -> Trace.t
(** The network's tracer (disabled by default).  {!send} captures the
    ambient {!Trace.ctx} at send time and restores it around the delivery
    closure — and around RPC timeout continuations and retry backoffs — so
    spans started by a message handler join the sender's trace. *)

val add_host : t -> ?clock_rate:float -> ?clock_offset:float -> string -> host
val host_name : host -> string
val host_clock : host -> Clock.t
val host_addr : host -> int
val find_host : t -> string -> host option

val set_link_latency : t -> host -> host -> latency -> unit
(** Override latency on the directed link from the first host to the second. *)

val set_loss : t -> float -> unit
(** Probability in [\[0,1\]] that any message is silently dropped. *)

val partition : t -> host -> host -> unit
(** Block traffic in both directions between the two hosts. *)

val heal : t -> host -> host -> unit

val host_up : t -> host -> bool

val crash_host : t -> host -> unit
(** Fail-stop the host: it emits and receives nothing until restarted.
    Messages sent by, in flight to, or addressed to a dead host are
    dropped and accounted under [category ^ ".dead"].  Subsystems holding
    volatile state for the host (e.g. the event broker) react through
    {!on_crash}. *)

val restart_host : t -> host -> unit

val on_crash : t -> host -> (unit -> unit) -> unit
(** Hook fired when this particular host crashes. *)

val on_restart : t -> host -> (unit -> unit) -> unit

val send : t -> ?category:string -> ?size:int -> src:host -> dst:host -> (unit -> unit) -> unit
(** One-way message: the closure runs at the destination after link latency,
    unless lost or partitioned. *)

val rpc :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  src:host ->
  dst:host ->
  (unit -> ('a, string) result) ->
  (('a, string) result -> unit) ->
  unit
(** Request/response: runs the handler at [dst] after one latency, delivers
    its result back to [src] after another.  If either leg is lost or the
    hosts are partitioned, the continuation receives [Error "timeout"] after
    [timeout] seconds (default 2.0).  A reply arriving after the timeout
    already fired is discarded and counted as [category ^ ".late_reply"]:
    the server-side effects stand, so handlers driven through retrying
    callers must be idempotent. *)

val rpc_retry :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?max_backoff:float ->
  src:host ->
  dst:host ->
  (unit -> ('a, string) result) ->
  (('a, string) result -> unit) ->
  unit
(** Reliable RPC: like {!rpc} but timeouts are retried with exponential
    backoff ([backoff * 2^n], capped at [max_backoff], default 0.25 s/8 s)
    plus deterministic seeded jitter, up to [attempts] total attempts
    (default 5); then it gives up and surfaces [Error "timeout"].
    Application-level errors are not retried.  Each attempt increments
    [category ^ ".attempt"]; exhausting the budget increments
    [category ^ ".giveup"].  The handler may run more than once (a lost
    reply does not mean a lost request), so it must be idempotent. *)

val rpc_async :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  src:host ->
  dst:host ->
  ((('a, string) result -> unit) -> unit) ->
  (('a, string) result -> unit) ->
  unit
(** Like {!rpc}, but the handler receives a [reply] closure instead of
    returning its result: it may call it later, from any subsequent engine
    event.  This is the request/response shape for servers whose answer is
    itself asynchronous — an ack that rides a WAL group commit, or a nested
    RPC to another host — where a synchronous handler would have to answer
    before the work is done.  Timeout, late-reply accounting and the
    idempotence obligation are exactly as for {!rpc}; a reply closure
    called twice sends two replies, of which the caller heeds at most
    one. *)

val rpc_async_retry :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?max_backoff:float ->
  src:host ->
  dst:host ->
  ((('a, string) result -> unit) -> unit) ->
  (('a, string) result -> unit) ->
  unit
(** {!rpc_async} with the {!rpc_retry} discipline: exponential backoff plus
    seeded jitter on timeout, [category ^ ".attempt"]/[".giveup"]
    accounting.  The handler may be {e concurrently} re-invoked while an
    earlier invocation is still working (the caller cannot tell a slow
    server from a lost request), so handlers must be idempotent under
    overlap, not merely under sequential repetition. *)

(** {1 Named-port messaging (backend-portable RPC)}

    The closure-based {!rpc} family above only works when both endpoints
    live in one address space.  The named-port surface below carries
    {e serialized} requests instead, so the same calling code runs on the
    sim (in-process delivery through the ordinary latency/loss/fault
    machinery) and on a real backend (framed bytes over a socket to a host
    this process does not own).  Protocol adapters ({!Oasis_core.Remote})
    are written against this surface once and gain both deployments. *)

type remote = {
  rm_call :
    src:string -> dst:string -> port:string -> string -> ((string, string) result -> unit) -> unit;
}
(** The transport hook a real backend installs: deliver one serialized
    request to a named remote host and eventually hand back one reply.
    The hook owns the wire (framing, connections, incoming dispatch);
    {!call} owns timeouts, late-reply accounting and trace-ctx restoration,
    so both backends present identical RPC semantics.  A transport that
    cannot reach [dst] simply never calls back — the caller's timeout
    fires. *)

val set_remote : t -> remote option -> unit

val bind :
  t -> host -> port:string -> (string -> ((string, string) result -> unit) -> unit) -> unit
(** Register the serialized-request handler for [port] at a local host.
    The handler may reply asynchronously, from any later engine event. *)

val dispatch :
  t -> dst:string -> port:string -> string -> ((string, string) result -> unit) -> unit
(** Deliver an incoming serialized request to a locally-bound handler —
    the entry point a backend's socket loop calls for requests arriving
    off the wire.  Unknown [dst]/[port] answers an [Error] rather than
    raising. *)

val call :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  src:host ->
  dst:string ->
  port:string ->
  string ->
  ((string, string) result -> unit) ->
  unit
(** One serialized request/response to the named host.  When [dst] is a
    host of this process, this is {!rpc_async} onto the port's bound
    handler (sim latency, loss, partitions and crashes all apply); when it
    is not and a remote transport is installed, the request crosses the
    wire.  Timeout semantics, [".timeout"]/[".late_reply"] accounting and
    trace-ctx propagation are identical on both paths.  Without a
    transport, unknown hosts answer [Error "unknown host: ..."]. *)

val call_retry :
  t ->
  ?category:string ->
  ?size:int ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:float ->
  ?max_backoff:float ->
  src:host ->
  dst:string ->
  port:string ->
  string ->
  ((string, string) result -> unit) ->
  unit
(** {!call} with the {!rpc_retry} discipline (exponential backoff, seeded
    jitter, [".attempt"]/[".giveup"] accounting).  Handlers must be
    idempotent: the request may execute more than once. *)
