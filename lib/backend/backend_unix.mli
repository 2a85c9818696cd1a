(** The wall-clock backend: a monotonic time source, a [select]-driven
    event loop, length-prefixed TCP messaging over loopback sockets, and
    real files with [fsync] behind the {!Oasis_store.Disk} interface.

    {b Clock} — {!Oasis_sim.Engine.now} reads [Unix.gettimeofday]
    normalized to the backend's start, so traces and percentiles are in
    seconds-since-start just like the simulator's virtual clock.

    {b Messaging} — in-process hosts talk through {!Oasis_sim.Net}
    unchanged (zero latency); the serialized named-port surface
    ({!Oasis_sim.Net.call}) additionally reaches {e remote} hosts
    registered with {!peer}.  Each message on the wire is one
    {!Oasis_util.Frame} under [Frame.key "tcp"] around a
    {!Oasis_util.Frame.pack}ed envelope.  A bad header or checksum means a
    desynchronized stream and drops the connection, as does a length
    above 64 MiB (a wire-only bound); outstanding calls are answered by
    their {!Oasis_sim.Net} timeouts.

    {b Storage} — one directory per host under {!data_dir}.  [append]
    buffers in memory (the page-cache analogue); [fsync] writes the
    buffered tail and calls [Unix.fsync]; abandoning the handle loses the
    unsynced tail, mirroring the simulated device's crash contract. *)

type t

val create : ?data_dir:string -> ?seed:int64 -> unit -> t
(** [data_dir] defaults to a fresh per-pid directory under the system temp
    dir.  [seed] seeds retry jitter.  In-process delivery has zero latency;
    the wire provides its own, real, latency. *)

val pack : t -> Backend.t

val data_dir : t -> string

val listen : t -> ?port:int -> unit -> int
(** Accept remote connections on loopback.  [port] defaults to [0]
    (ephemeral); returns the actual port bound. *)

val peer : t -> name:string -> port:int -> unit
(** Register remote host [name] as reachable at loopback:[port].
    {!Oasis_sim.Net.call}s addressed to a name that is not a local host
    are framed and sent there. *)

val alias : t -> name:string -> local:string -> unit
(** Rewrite inbound envelope destination [name] to local host [local] —
    lets a process address its own hosts over the wire (bench [e22]) and
    decouples wire names from host names. *)

val disk : t -> Oasis_sim.Net.host -> Oasis_store.Disk.t
(** The host's real-file device (memoized; directory
    [data_dir/<host name>]). *)

val reopen_disk : t -> Oasis_sim.Net.host -> Oasis_store.Disk.t
(** Crash-and-recover: drop the open handle — losing in-memory unsynced
    tails — and re-attach a fresh device to the same directory.  The new
    device sees exactly the durable prefix. *)

val shutdown : t -> unit
(** Close all sockets (listeners and connections). *)
