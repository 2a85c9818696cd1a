(** The §4.11 ledger: everything a service promises to remember across
    crashes, and the only place that knows how it is written down.

    It holds the hire/fire database (the blacklist of fired role
    instances) and, when durable, a mirror of the certificates the
    service has issued: each one's credential-record key, what its
    validity {e depends on} (a small dependency list) and the §4.11
    revoker arms to re-create, so recovery can re-materialise the
    credential-record subgraph backing outstanding certificates.
    Delegation ties and group-derived residuals are not persisted: a
    recovered record that depended on them reads the dangling reference
    as permanently False — fail closed, per the reference-magic
    convention.

    A durable ledger journals every transition to an
    {!Oasis_store.Journal} (files [<file>.wal] and [<file>.snap]).  One
    record per transition; fields are separated by byte 0x1f, list items
    by 0x1e, item subfields by 0x1d.  Free-form bytes (role names,
    marshalled arguments, peer names) are hex-encoded so they cannot
    collide with the separators or with the image's 0x1c; record keys are
    already separator-free ({!Credrec.marshal_ref} is hex plus a dot).
    The grammar:

    - [F role args]       fire: blacklist the role instance
    - [H role args]       re-hire: drop the blacklist entry
    - [I key deps rbrs]   certificate issued over record [key]
    - [V key]             record [key] explicitly invalidated
    - [B epoch]           a replica group's epoch barrier ({!Replica});
                          replay ignores it, as it ignores every
                          unknown tag

    A checkpoint image is the same records (the blacklist, then each live
    issued record); every record is an upsert, so replaying a log that
    repeats part of the image is harmless, and a truncated or garbled
    record is skipped.

    A ledger without a disk is volatile: it keeps the blacklist, keeps no
    issued mirror, writes nothing, acks at once and registers no crash
    hook — a crash leaves such a service's memory as it was. *)

(** What an issued certificate's validity hangs on. *)
type dep =
  | Dext of string * string  (** issuing peer service, remote record key *)
  | Dloc of string  (** key of a local record (itself issued) *)

type rbr = string * string * string
(** A §4.11 revoker arm: role, marshalled arguments, revoker role. *)

type issued = {
  mutable i_alive : bool;  (** False once explicitly invalidated *)
  i_deps : dep list;
  i_rbrs : rbr list;
}

type t

val create :
  Oasis_sim.Net.t ->
  Oasis_sim.Net.host ->
  ?disk:Oasis_store.Disk.t ->
  file:string ->
  every:int ->
  unit ->
  t
(** A ledger for the service on [host].  With [disk] it is durable and
    journals to [file], checkpointing as {!Oasis_store.Journal.create}
    with [every]. *)

val journal : t -> Oasis_store.Journal.t option

(** {1 The hire/fire database} *)

val fired : t -> string * string -> bool
val fire : t -> string * string -> unit
val hire : t -> string * string -> unit

(** {1 The issued mirror (durable ledgers only)} *)

val issue : t -> Credrec.cref -> deps:dep list -> rbrs:rbr list -> unit
(** Log a certificate issued over the record.  A record already in the
    mirror (re-validation of an outstanding certificate) is not
    re-logged. *)

val invalidate : t -> Credrec.cref -> unit
(** Log the death of an issued record.  Only records backing issued
    certificates are logged: any other invalidation either cascades from
    a logged fact at recovery or is reconstructed conservatively. *)

val record_deaths : t -> Credrec.table -> unit
(** {!invalidate} every live issued record that [table] now reads False:
    after a fire's cascade, the F record alone is not durable evidence of
    the deaths, since a later re-hire removes it. *)

val find_issued : t -> string -> issued option
val issued_keys : t -> string list
(** Every mirrored key, alive or dead, sorted. *)

val iter_issued : t -> (string -> unit) -> unit
val live_issued : t -> int

(** {1 Acks, crashes and replay} *)

val ack : t -> (unit -> unit) -> unit
(** Run the callback once every transition logged so far is safe: at
    once when volatile, after the journal's group commit when durable,
    and after a write quorum once {!set_replication} installed one.  A
    crash that loses the record also swallows the ack. *)

val set_replication : t -> sync:((unit -> unit) -> unit) -> unit
(** Route {!ack} through [sync] and stop the journal checkpointing
    ({!Oasis_store.Journal.set_replicated}). *)

val flush : t -> unit
(** Force the journal's group commit now. *)

val on_host : t -> crash:(unit -> unit) -> restart:(unit -> unit) -> unit
(** Durable ledgers only: on a host crash run [crash] (the service drops
    its volatile state, reading the mirror one last time) and then empty
    the mirror; on restart run [restart]. *)

val recover :
  t -> rematerialise:(unit -> unit) -> on_done:(unit -> unit) -> unit
(** Replay image then log into the mirror and run [rematerialise], after
    {!Oasis_store.Disk.scan_delay} for the durable bytes and inside one
    [oasis.recover.e2e] span.  [on_done] runs once the replay has run —
    never when a crash racing the scan aborted it.  A volatile ledger
    calls [on_done] at once. *)

val fingerprint : t -> int64
(** Hash of the blacklist and, when durable, of the issued mirror and the
    device bytes. *)

(** {1 The record grammar} *)

val apply_record : t -> string -> unit
(** Apply one record to the mirror.  Total and idempotent. *)

val image : t -> string list
(** The checkpoint image, sorted.  Dead issued records are left out and
    purged from the mirror, so the image stays O(live state) under
    churn.  Dropping is safe: a dropped identity is never restored, so
    references to it dangle and read permanently False, and a later
    fresh allocation of the slot bumps the magic past it. *)

val barrier : int -> string
(** The epoch barrier record [B epoch]. *)

val last_barrier : string list -> int
(** The epoch of the last barrier among the records (0 if none). *)
