(** The durability journal: one write-ahead log ([<file>.wal], a {!Wal}),
    one atomic checkpoint image ([<file>.snap]), and the protocol that
    keeps them consistent across crashes.

    The journal checkpoints once the appends since the last image reach
    [max every n], where [n] is the number of records that image held
    (the amortized compaction rule of LSM trees and Raft).  A checkpoint
    starts a fresh {e tail} (the records appended from then on), saves
    the caller's [image] with {!Disk.write_atomic}, and once the image is
    durable rewrites the log down to the tail.  At most one checkpoint is
    in flight.  Each checkpoint's O(n) image is paid for by at least [n]
    appends, so total checkpoint work stays linear in the appends while
    replay stays O(live state): one image plus about one image's worth of
    log.  While images hold at most [every] records the trigger is simply
    every [every] appends.

    Each crash window recovers a consistent history: before the image is
    durable, the old image and old log; between image and rewrite, the
    new image and the {e old} log (a contiguous suffix that repeats part
    of the image); after the rewrite, the new image and the tail.  Replay must therefore tolerate repeats — upserts do by
    construction; a caller with non-idempotent records skips what it
    already applied.

    A journal declared {!set_replicated} never checkpoints: its log is one
    member's copy of a replica group's stream, which must stay a prefix of
    that stream in global coordinates.

    The image is one {!Oasis_util.Frame} under [Frame.key] of the image
    file's name, its records joined by ['\x1c']; records must not contain
    that separator. *)

type t

val create : Disk.t -> file:string -> every:int -> image:(unit -> string list) -> t
(** [image] runs synchronously at each checkpoint trigger and returns
    records whose in-order replay rebuilds the caller's state as of then. *)

val disk : t -> Disk.t

val append : t -> string -> unit
(** Log one record (group commit, as {!Wal.append}), then checkpoint if
    [max every n] appends have accumulated since the last checkpoint,
    [n] being the last image's record count (see the module header). *)

val sync : t -> (unit -> unit) -> unit
(** Run the callback once everything appended so far is durable. *)

val flush : t -> unit
(** Force the log's group commit now. *)

val records : t -> string list
(** The durable image's records, then the durable log's: replay order.
    Records the scan in [store.recover] stats. *)

val durable_bytes : t -> int
(** Durable bytes of log plus image, for {!Disk.scan_delay}. *)

val image_bytes : t -> int
(** Framed image bytes this journal has written over its life, crashes
    included: its own share of the [store.snapshot] stat. *)

val set_replicated : t -> unit
(** Stop checkpointing for good (see the module header). *)

val set_ship : t -> (string -> unit) option -> unit
(** Install or clear the ship observer ({!Wal.on_append}). *)

val follower_append : t -> string -> unit
(** Log a record shipped from a primary's stream ({!Wal.follower_append}):
    invisible to the ship observer and to the checkpoint trigger. *)

val log_records : t -> string list
(** The durable log's records alone, without the image. *)

val rewrite : t -> string list -> (unit -> unit) -> unit
(** Atomically replace the log with exactly [records] (replication repair;
    {!Wal.rewrite}'s guard applies — {!sync} first). *)
