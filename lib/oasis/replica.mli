(** Per-shard primary/backup replication: K durable {!Service} hosts, one
    logical service, zero-cost crashes.

    A replica group runs K full services under ONE service name (so they
    share name-derived signing secrets: certificates issued by any epoch's
    primary verify at every later primary) on K distinct hosts.  The
    primary serves every request; its WAL append stream — in {e global}
    record coordinates, compaction disabled (see {!Service.set_replication})
    — is shipped to backups over the simulated network as batches of
    {!Oasis_util.Frame}s under the group's stream key, journalled by
    {!Oasis_store.Journal.follower_append}, and acked only once durable at
    the receiver.  Client acks ({!Ledger.ack}) wait for a
    majority write quorum (⌈(K+1)/2⌉): losing any minority of replicas —
    including the primary and its disk — loses no acknowledged operation.

    {b Failover} is deterministic lease/epoch promotion on the sim clock:
    the primary heartbeats every [heartbeat]; a backup whose lease
    ([lease + stagger·index], staggered so candidates do not race) expires
    promotes itself via an epoch compare-and-swap — fetch the durable log
    from every reachable peer, require a majority (which must intersect
    every ack quorum), bump the epoch, adopt the winning log, replay it
    ({!Service.recover}) and re-register under the logical name.  Every
    promotion stamps an {e epoch barrier} record into the stream, and the
    winning log is the greatest (last barrier, length) — VSR's view-change
    rule — so a dead epoch's unacked tail on a rejoining disk can never
    outrank a log carrying later acked records; shipping then repairs such
    tails by content comparison ({!Oasis_store.Journal.rewrite}).  Double
    promotion in one epoch commits exactly once; a candidate that dies
    mid-replay is superseded at the next lease expiry.  A restarted
    ex-primary re-promotes itself through the same path, re-fetching any
    acked suffix its crash lost.

    Members never cancel or re-arm timers: each has one static periodic
    timer whose primary/backup behaviour is decided by data per tick, so
    crash/restart cycles cannot leak timers (the PR 1 heartbeat-leak
    class), which [test_shard.ml] asserts via
    {!Oasis_sim.Engine.pending_tagged}.

    Fault model: fail-stop crashes and restarts.  Partitions {e between
    group members} are out of scope (the harnesses never create them);
    under crashes only, member logs cannot diverge.  [K = 1] is a trivial
    group: no hooks, no timers, byte-identical to an unreplicated
    service. *)

type t

val create :
  Oasis_sim.Net.t ->
  members:Service.t array ->
  ?heartbeat:float ->
  ?lease:float ->
  ?stagger:float ->
  unit ->
  t
(** Wrap [members] (same name, distinct hosts; index 0 is the initial
    primary, and only it should be registry-registered) into a group.  For
    K >= 2 every member must be durable (else [Invalid_argument]); installs
    the quorum-ack and ship hooks, disables per-member auto-recovery, and
    arms the static heartbeat/lease timers.  Defaults:
    [heartbeat] 0.2 s, [lease] 0.45 s, [stagger] 0.15 s — failover in
    under a second of sim time.  Use odd K: an even K tolerates no more
    crashes than K-1. *)

val primary : t -> Service.t
(** The current epoch's primary — resolve per request, never cache across
    engine events (the router does exactly this). *)

val primary_index : t -> int
val epoch : t -> int

val ready : t -> bool
(** False from a promotion commit until its replay finishes; the router
    drops (does not answer) forwarded requests while false, so the
    client-side retry re-forwards to the settled primary. *)

val replica_count : t -> int
val members : t -> Service.t list
val member : t -> int -> Service.t

val promotions : t -> int
(** Committed promotions so far (the idempotence tests count these). *)

val stream : t -> string list
(** The authoritative record stream, oldest first (epoch barriers
    included).  At quiescence every live member's durable log
    ({!Oasis_store.Journal.log_records}) is a prefix of it — the log-shipping
    invariant; a freshly rejoined member may briefly hold a dead epoch's
    tail until shipping repairs it. *)

val promote : t -> member:int -> from_epoch:int -> unit
(** Begin promoting [member] against the epoch it observed.  A no-op
    unless the group's epoch still equals [from_epoch] when the fetch
    completes (the CAS), the candidate is up, and a majority of the group
    is reachable.  Exposed for tests; the lease timers and restart hooks
    call it internally. *)

val on_promote : t -> (Service.t -> unit) -> unit
(** Called (in registration order) each time a promotion's replay
    completes, with the new primary — how a scenario rebinds names that
    were resolved to a service value at build time. *)

val fingerprint : t -> int64
(** Replication-plane state hash (epoch, primary, readiness, stream and
    ack cursors); folded into {!Shard.fingerprint} for K >= 2 so the model
    checker distinguishes failover states. *)
