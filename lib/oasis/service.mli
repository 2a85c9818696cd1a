(** An OASIS service: rolefile, role-entry engine, certificate issue and
    validation, delegation/election, revocation — chapters 3 and 4.

    A service lives on a simulated host, owns a credential-record table, a
    rolling secret table, a set of local groups and extension functions, and
    an event broker over which it publishes [Modified(crr, state)] events so
    that {e other} services holding certificates it issued can cascade
    revocation (§4.9).  Client-facing operations travel over the simulated
    network; inter-service certificate validation is an RPC to the issuing
    service (§2.10), with the result cached locally as an {e external
    record} kept coherent by event notification and marked [Unknown] when
    heartbeats stop (§4.10).

    What a service promises to remember across crashes — the §4.11
    hire/fire databases and the certificates it has issued — lives in its
    {!Ledger}, which also owns their journal records and the ack that
    waits for durability.  This module holds no durable state of its own:
    its crash recovery only re-materialises credential records from the
    mirror the ledger replays. *)

type value = Oasis_rdl.Value.t

type t

(** The name service / trader through which services resolve each other. *)
type registry

val create_registry : unit -> registry
val find_service : registry -> string -> t option

val services : registry -> t list
(** Every registered service, sorted by name.  Used by federation-wide
    tooling ({!Federation_lint}). *)

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  registry ->
  name:string ->
  ?rolefile_id:string ->
  rolefile:string ->
  ?funcs:(string * (value list -> (value, string) result)) list ->
  ?compound_certificates:bool ->
  ?fixpoint_entry:bool ->
  ?heartbeat:float ->
  ?batch_notifications:bool ->
  ?disk:Oasis_store.Disk.t ->
  ?snapshot_every:int ->
  ?lint:[ `Off | `Warn | `Strict ] ->
  ?register:bool ->
  unit ->
  (t, string) result
(** Parse + type-check the rolefile and install the service.

    [lint] (default [`Warn]) gates registration on the static analyzer
    ({!Oasis_rdl.Analyze}): error-severity diagnostics (never-fires
    statements, unsatisfiable constraints, unknown extension functions,
    arity/type errors) fail [create]; warnings are logged via {!Logs}.
    [`Strict] also fails on warnings; [`Off] skips the analyzer entirely
    (the pre-lint behaviour).  When {!Federation_lint} is linked, the gate
    extends to the federation-wide codes (OASIS001-008) computed over the
    already registered services plus the candidate, restricted to the
    diagnostics anchored at the candidate itself.

    Signatures are 16 hex chars (§4.2's per-service trade-off, fixed
    here) and signature checks are cached (at most 1024 entries,
    two-generation eviction; compiled residuals at most 4096).  [compound_certificates]: fold
    same-argument roles entered in one request into one certificate (§4.3;
    default true).
    [fixpoint_entry]: ablation switch — iterate statement application to a
    fixpoint instead of the paper's single in-order pass (default false).
    [heartbeat]: period of this service's broker heartbeats (default 1s).
    [batch_notifications] (default true): coalesce credential-record change
    notifications into one ModifiedBatch digest per peer link, flushed on
    the broker heartbeat tick (bounded by one heartbeat of extra latency);
    with [false], every record change is its own Modified event, as in the
    unbatched scheme benchmarked by e15.

    [disk] enables the durable-state plane: the {!Ledger} journals the
    §4.11 hire/fire databases and issued certificates (with their
    dependency lists) ({!Oasis_store.Journal}, files [svc.<name>.wal] and
    [svc.<name>.snap})
    on the given stable-storage device, checkpointed once the appends
    since the last image reach [max snapshot_every n] ([snapshot_every]
    defaults to 128; [n] is the last image's record count, so checkpoint
    work stays linear in the appends), and replayed after a
    host crash+restart — restored certificates resolve again, externals
    re-mirror at [Unknown] until the reread machinery heals them, and
    fired instances stay fired.  The broker's retained event log rides
    the same device.  Without [disk] the service installs no crash hook:
    a host crash drops its broker sessions and in-flight messages but
    leaves its in-memory state as it was.

    [register] (default true): install the service in [registry] under its
    name.  Backup replicas of a replica group (see {!Replica}) pass
    [false] — they share the primary's name and must not shadow it; a
    promotion calls {!reregister}. *)

val name : t -> string
val host : t -> Oasis_sim.Net.host

val set_federation_linter :
  (registry -> name:string -> rolefile:Oasis_rdl.Ast.rolefile -> Oasis_rdl.Analyze.diag list) ->
  unit
(** Install the federation-wide lint hook {!create} consults before
    registering a service (the candidate rides along as an extra member).
    Called by {!Federation_lint} at link time; not meant for user code. *)

val add_sibling : t -> string -> unit
(** Declare another registered service a {e sibling shard} of the same
    logical service (same rolefile, disjoint slice of the credential
    records — see {!Shard}).  Unqualified role references in this
    service's rolefile then also accept memberships validated at the
    sibling, and sibling-issued certificates are accepted as fire/re-hire
    revoker credentials (checked at their issuer over the §2.10
    validation RPC and mirrored as external records, since credential
    record references are table-relative).  Symmetric sharding wires
    every pair both ways. *)

val table : t -> Credrec.table
val broker : t -> Oasis_events.Broker.server
val rolefile : t -> Oasis_rdl.Ast.rolefile
val registry : t -> registry

val group : t -> string -> Group.t
(** Find or create a local group. *)

val role_bits : t -> (string * int) list
(** The service's role→bit configuration mapping (§4.3). *)

val roll_secret : t -> unit
(** Install a fresh signing secret (§5.5.1); certificates signed with
    retired secrets stop verifying. *)

(** {1 Validation (§4.2)} *)

type failure =
  | Wrong_client  (** presented by a client other than its holder *)
  | Forged  (** signature check failed *)
  | Wrong_context  (** issued by another service or rolefile *)
  | Insufficient  (** valid but does not embody the needed role *)
  | Revoked  (** credential record is False *)
  | Unknown_state  (** possibly revoked (network failure); fails closed *)

val pp_failure : Format.formatter -> failure -> unit

val validate :
  t -> client:Principal.vci -> ?need_role:string -> Cert.rmc -> (unit, failure) result
(** Full local validation: holder binding, signature (cached when enabled),
    context, optional rights check, credential record state.  Fraudulent and
    erroneous failures are audited separately from revocation (§4.2). *)

val validate_for_peer :
  t -> Cert.rmc -> (string list * value list * Credrec.cref, failure) result
(** The inter-service validation interface (§2.10): returns role names,
    arguments and the CRR; also arms [Modified] event notification for that
    record. *)

(** {1 Role entry} *)

val request_entry :
  t ->
  client_host:Oasis_sim.Net.host ->
  client:Principal.vci ->
  role:string ->
  ?args:value list ->
  ?creds:Cert.rmc list ->
  ?delegation:Cert.delegation ->
  ((Cert.rmc, string) result -> unit) ->
  unit
(** Ask to enter [role], supplying credentials (certificates from this or
    other services) and optionally a delegation certificate.  Statements are
    applied in rolefile order; intermediate roles are entered automatically;
    the first suitable membership is returned (§3.2.2, fig 3.2). *)

(** {1 Delegation and revocation (§4.4–4.5)} *)

val request_delegation :
  t ->
  client_host:Oasis_sim.Net.host ->
  delegator:Principal.vci ->
  using:Cert.rmc ->
  role:string ->
  required:(string * string * value list) list ->
  ?expires_in:float ->
  ?revoke_on_exit:bool ->
  ((Cert.delegation * Cert.revocation, string) result -> unit) ->
  unit
(** The delegator must hold (via [using]) the elector role of an election
    statement for [role].  [required] names the roles the candidate must
    hold ([Value.Str "*"] is a wildcard argument).  [expires_in] arms
    automatic revocation (§4.4); [revoke_on_exit] ties the delegation to the
    delegator's own membership record. *)

val request_revocation :
  t ->
  client_host:Oasis_sim.Net.host ->
  Cert.revocation ->
  ((unit, string) result -> unit) ->
  unit
(** Uses the revocation certificate: checks the delegator still holds the
    delegating role, then invalidates the delegation record (cascades). *)

val delegate_revocation :
  t ->
  client_host:Oasis_sim.Net.host ->
  rcert:Cert.revocation ->
  to_cert:Cert.rmc ->
  ((Cert.revocation, string) result -> unit) ->
  unit
(** Delegate the {e right to revoke} (§4.4): re-issue a revocation
    certificate so that the holder of [to_cert] may exercise it.  The fixed
    policy applies: the recipient must themselves be a member of the
    delegating (elector) role; the new certificate is bound to the
    recipient's membership record, so it dies if they lose the role. *)

val exit_role :
  t ->
  client_host:Oasis_sim.Net.host ->
  Cert.rmc ->
  ((unit, string) result -> unit) ->
  unit
(** Voluntary exit (e.g. logoff): invalidates the certificate's record. *)

(** {1 Role-based revocation (§3.3.2, §4.11)} *)

val revoke_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((int, string) result -> unit) ->
  unit
(** A holder of the revoker role named by the [|>] clause revokes every
    live membership of [role(args)] and blacklists the instance ("fire").
    Returns the number of memberships revoked. *)

val reinstate_role_instance :
  t ->
  client_host:Oasis_sim.Net.host ->
  revoker:Cert.rmc ->
  role:string ->
  args:value list ->
  ((unit, string) result -> unit) ->
  unit
(** Remove the blacklist entry ("re-hire", §4.11). *)

(** {1 Interworking (§4.12)} *)

val issue_arbitrary :
  t -> client:Principal.vci -> roles:string list -> args:value list -> Cert.rmc
(** Issue a certificate outside RDL policy — the bootstrap mechanism used by
    password and loader services, and by adapters for legacy schemes. *)

val issue_with_record :
  t -> client:Principal.vci -> roles:string list -> args:value list ->
  crr:Credrec.cref -> Cert.rmc
(** Like {!issue_arbitrary} but embedding a caller-built credential record —
    used by embedding systems (the MSSA custodes) that assemble their own
    membership-rule graphs (§5.5.2). *)

val import_remote_record :
  t -> peer:string -> remote:Credrec.cref -> Credrec.cref
(** The external-record mechanism (§4.9.1) for embedding systems: a local
    surrogate for a record held by [peer], kept coherent by [Modified]
    event notification and marked [Unknown] on missed heartbeats. *)

val mint_delegation_record :
  t ->
  delegator_crr:Credrec.cref ->
  ?expires_in:float ->
  ?revoke_on_exit:bool ->
  unit ->
  Credrec.cref * Cert.revocation
(** Create a delegation credential record plus its matching revocation
    certificate, for embedding systems that implement their own election
    policy (e.g. MSSA per-file delegation, §5.4.3). *)

val revoke_certificate : t -> Cert.rmc -> unit
(** Invalidate the certificate's credential record directly. *)

(** {1 Auditing and accounting (§4.13)} *)

type audit_kind = Fraud | Erroneous | Revocation_denied | Entry | Delegation | Revocation | Exit

type audit_entry = { at : float; kind : audit_kind; detail : string }

val audit_log : t -> audit_entry list
(** Newest first. *)

val crypto_checks : t -> int
(** Signature computations performed (cache misses). *)

val cache_hits : t -> int

val sig_cache_size : t -> int
(** Entries currently held by the (capped) signature cache; hit/miss
    counters also land in the net's {!Oasis_sim.Stats} under
    [oasis.sigcache.*]. *)

val residual_cache_size : t -> int
(** Entries in the compiled-residual cache ([oasis.residual.*] counters). *)

val gc : t -> int
(** Run a credential-record GC sweep; returns slots reclaimed. *)

(** {1 Durability (tests and benches)} *)

val durable_issued : t -> int
(** Issued records currently alive in the durable mirror (0 without
    [disk]). *)

val durable_flush : t -> unit
(** Force the write-ahead log's group commit now. *)

val blacklisted : t -> role:string -> args:value list -> bool
(** Is the role instance currently fired (§4.11)? *)

val recover : ?on_done:(unit -> unit) -> t -> unit
(** The restart hook: replay snapshot + log and re-materialise issued
    state.  Registered automatically on host restart when [disk] was
    given (unless {!set_auto_recover} turned it off); exposed for tests
    and for the replica promotion protocol, whose [on_done] fires once
    the replay has actually run — never when a racing crash aborted it. *)

(** {1 Replication hooks ({!Replica} drives these)}

    A replica group runs K full services under ONE name on K hosts: the
    primary's WAL is the authoritative record stream, backups journal
    shipped copies of it, and client acks wait for a write quorum.  The
    hooks below are the whole surface the group needs from the service:
    everything else (identical secrets from the shared name, idempotent
    log replay, §4.10 healing) already holds. *)

val set_replication : t -> sync:((unit -> unit) -> unit) -> unit
(** Install the quorum hook: {e every} client ack that previously rode the
    local group commit ({!Ledger.ack}) now rides [sync] instead.
    Also stops the journal checkpointing ({!Oasis_store.Journal.set_replicated}):
    the WAL must remain the full stream in global record coordinates (see
    DESIGN.md). *)

val set_auto_recover : t -> bool -> unit
(** Whether the host-restart hook replays the log automatically (default
    true).  Replica-group members turn this off: a restarted member
    recovers through the epoch/promotion protocol, which must fetch any
    missing log suffix from its peers {e before} replaying. *)

val journal : t -> Oasis_store.Journal.t option
(** This service's durability journal ([None] without [disk]).  A replica
    group drives it directly: the primary's ship observer
    ({!Oasis_store.Journal.set_ship}), a backup's
    {!Oasis_store.Journal.follower_append}, and log repair by
    {!Oasis_store.Journal.log_records} / {!Oasis_store.Journal.rewrite}.
    At quiescence a backup's log records are a prefix of the primary's
    stream — the log-shipping invariant the replication tests assert. *)

val reregister : t -> unit
(** (Re-)install this service in the registry under its name — how a
    promoted backup takes over the logical service identity. *)

val registered : t -> bool
(** Is this exact instance the one the registry currently resolves? *)

val fingerprint : t -> int64
(** Deterministic hash of the service's protocol-visible state: the
    credential-record table ({!Credrec.fingerprint}), the §4.11 blacklist,
    the pending invalidation digest, and — when durable — the issued
    mirror and the stable-storage device bytes.  Equal fingerprints mean
    two runs reached equivalent service states; the model checker
    ({!Oasis_mc.Explore}) prunes interleavings on it. *)
