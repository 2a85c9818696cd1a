module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats

type t = {
  j_wal : Wal.t;
  j_snap : string;  (* checkpoint image file *)
  j_every : int;
  j_image : unit -> string list;
  mutable j_appends : int;  (* appends since the last checkpoint *)
  mutable j_tail : string list;
      (* newest-first records appended since the last checkpoint's image
         point — exactly what the log must still hold once that image is
         durable *)
  mutable j_compacting : bool;  (* an image+rewrite cycle is in flight *)
  mutable j_replicated : bool;
}

let create disk ~file ~every ~image =
  let t =
    {
      j_wal = Wal.create disk ~file:(file ^ ".wal") ();
      j_snap = file ^ ".snap";
      j_every = every;
      j_image = image;
      j_appends = 0;
      j_tail = [];
      j_compacting = false;
      j_replicated = false;
    }
  in
  (* Volatile bookkeeping; an image write in flight dies with the host. *)
  Net.on_crash (Disk.net disk) (Disk.host disk) (fun () ->
      t.j_appends <- 0;
      t.j_tail <- [];
      t.j_compacting <- false);
  t

let disk t = Wal.disk t.j_wal

let save_image t payload k =
  let framed = Wal.frame_with ~key:t.j_snap payload in
  let st = Net.stats (Disk.net (disk t)) in
  Stats.incr st "store.snapshot";
  Stats.add_bytes st "store.snapshot" (String.length framed);
  Disk.write_atomic (disk t) ~file:t.j_snap framed k

(* Serialize (covering every record up to this instant), save, then compact
   the log to [j_tail] — which keeps accumulating while the image write is
   in flight; appends racing the rewrite itself survive its atomic replace
   by {!Disk.write_atomic}'s append-preserving semantics. *)
let maybe_checkpoint t =
  if (not t.j_replicated) && t.j_appends >= t.j_every && not t.j_compacting then begin
    t.j_appends <- 0;
    t.j_compacting <- true;
    t.j_tail <- [];
    save_image t (String.concat "\x1c" (t.j_image ())) (fun () ->
        Wal.rewrite t.j_wal (List.rev t.j_tail) (fun () -> t.j_compacting <- false))
  end

let append t line =
  Wal.append t.j_wal line;
  t.j_tail <- line :: t.j_tail;
  t.j_appends <- t.j_appends + 1;
  maybe_checkpoint t

let sync t k = Wal.sync t.j_wal k
let flush t = Wal.flush t.j_wal

let records t =
  let image =
    match Wal.decode_with ~key:t.j_snap (Disk.read (disk t) ~file:t.j_snap) with
    | [ payload ] when payload <> "" -> String.split_on_char '\x1c' payload
    | _ -> []
  in
  image @ Wal.recover t.j_wal

let durable_bytes t =
  Disk.durable_size (disk t) ~file:(Wal.file t.j_wal)
  + Disk.durable_size (disk t) ~file:t.j_snap

let set_replicated t = t.j_replicated <- true
let set_ship t obs = Wal.on_append t.j_wal obs
let follower_append t line = Wal.follower_append t.j_wal line
let log_records t = Wal.recover t.j_wal
let rewrite t records k = Wal.rewrite t.j_wal records k
