(* The durable-state plane: simulated stable storage, the write-ahead log
   with group commit and checksum framing, the journal's checkpoints and
   their crash windows, and crash recovery of services and brokers (§4.11
   databases + issued memberships, retained events).

   Everything runs on the deterministic simulator: crashes tear the log at
   seeded points, so a failing case replays exactly. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Prng = Oasis_util.Prng
module Siphash = Oasis_util.Siphash
module Frame = Oasis_util.Frame
module Disk = Oasis_store.Disk
module Wal = Oasis_store.Wal
module Journal = Oasis_store.Journal
module Broker = Oasis_events.Broker
module Event = Oasis_events.Event
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type dworld = { engine : Engine.t; net : Net.t; host : Net.host; disk : Disk.t }

let make_dworld ?seed () =
  let engine = Engine.create () in
  let net = Net.create ?seed ~latency:(Net.Fixed 0.005) engine in
  let host = Net.add_host net "store" in
  let disk = Disk.create net host () in
  { engine; net; host; disk }

let drun w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

(* --- write-ahead log --- *)

let test_wal_roundtrip () =
  let w = make_dworld () in
  let wal = Wal.create w.disk ~file:"log" () in
  let records = List.init 50 (fun i -> Printf.sprintf "record-%d-%s" i (String.make (i mod 7) 'x')) in
  List.iter (fun r -> Wal.append wal r) records;
  let synced = ref false in
  Wal.sync wal (fun () -> synced := true);
  drun w 1.0;
  checkb "sync completed" true !synced;
  checkb "recover returns every record in order" true (Wal.recover wal = records);
  checki "lifetime append counter" 50 (Wal.appended wal)

let test_wal_group_commit_coalesces_fsyncs () =
  let appends = 1000 in
  let fsyncs_with each =
    let w = make_dworld () in
    let wal = Wal.create w.disk ~file:"log" ~flush_interval:0.01 ~fsync_each:each () in
    for i = 0 to appends - 1 do
      Engine.schedule_at w.engine ~at:(0.001 *. float_of_int i) (fun () ->
          Wal.append wal (Printf.sprintf "r%d" i))
    done;
    Engine.run ~until:5.0 w.engine;
    checkb "no record lost" true (List.length (Wal.recover wal) = appends);
    Stats.count (Net.stats w.net) "store.fsync"
  in
  let baseline = fsyncs_with true in
  let grouped = fsyncs_with false in
  checki "fsync-per-append baseline" appends baseline;
  checkb
    (Printf.sprintf "group commit reduces fsyncs >= 5x (%d -> %d)" baseline grouped)
    true
    (grouped * 5 <= baseline)

let test_wal_durability_callback_after_crash () =
  let w = make_dworld ~seed:5L () in
  let wal = Wal.create w.disk ~file:"log" () in
  let durable = ref [] in
  Wal.append wal ~on_durable:(fun () -> durable := "a" :: !durable) "a";
  Wal.sync wal (fun () -> ());
  drun w 1.0;
  (* The second record's group commit dies with the host: its callback must
     never fire, even after restart. *)
  Wal.append wal ~on_durable:(fun () -> durable := "b" :: !durable) "b";
  Net.crash_host w.net w.host;
  drun w 1.0;
  Net.restart_host w.net w.host;
  drun w 2.0;
  checkb "only the synced record's callback fired" true (!durable = [ "a" ])

(* A crash with unsynced appends leaves a (possibly torn) tail; recovery
   must yield a checksum-valid prefix, never raise, and keep everything
   that was fsynced. *)
let test_wal_crash_recovers_synced_prefix () =
  let torn = ref 0 in
  List.iter
    (fun seed ->
      let w = make_dworld ~seed () in
      let wal = Wal.create w.disk ~file:"log" () in
      let records = List.init 20 (fun i -> Printf.sprintf "record-%d" i) in
      let synced_part, unsynced_part =
        (List.filteri (fun i _ -> i < 10) records, List.filteri (fun i _ -> i >= 10) records)
      in
      List.iter (fun r -> Wal.append wal r) synced_part;
      Wal.sync wal (fun () -> ());
      drun w 1.0;
      List.iter (fun r -> Wal.append wal r) unsynced_part;
      Net.crash_host w.net w.host;
      drun w 0.5;
      Net.restart_host w.net w.host;
      let recovered = Wal.recover wal in
      let n = List.length recovered in
      checkb "at least the synced prefix" true (n >= 10);
      checkb "no record invented" true (n <= 20);
      checkb "exactly a prefix of what was appended" true
        (recovered = List.filteri (fun i _ -> i < n) records);
      if Stats.count (Net.stats w.net) "store.crash.torn" > 0 then incr torn)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
  (* The seeds must actually exercise the torn-write path, not only clean
     losses, or the checksum scan is untested. *)
  checkb "some seed tore the final record" true (!torn >= 1)

(* A rewrite over buffered plain appends is legal (compacting callers
   re-include them in the new contents), but a rewrite over a pending
   [on_durable] callback would silently drop a client ack — it must raise
   instead, and go through again once the buffer is synced. *)
let test_wal_rewrite_refuses_pending_callbacks () =
  let w = make_dworld () in
  let wal = Wal.create w.disk ~file:"log" () in
  Wal.append wal "keep-1";
  Wal.rewrite wal [ "keep-1" ] (fun () -> ());
  drun w 1.0;
  checkb "rewrite over a plain buffered append is legal" true (Wal.recover wal = [ "keep-1" ]);
  Wal.append wal ~on_durable:(fun () -> ()) "acked";
  (match Wal.rewrite wal [ "other" ] (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rewrite over a pending durability callback must raise");
  let synced = ref false in
  Wal.sync wal (fun () -> synced := true);
  drun w 1.0;
  checkb "sync completed" true !synced;
  Wal.rewrite wal [ "fresh" ] (fun () -> ());
  drun w 1.0;
  checkb "rewrite goes through once the buffer is drained" true
    (Wal.recover wal = [ "fresh" ])

(* --- the frame codec --- *)

(* The framing as first written with [Printf], kept here as the reference
   the codec must match byte for byte: persisted logs and the wire depend
   on it. *)
let printf_frame name payload =
  let key = Siphash.key_of_string ("oasis.wal:" ^ name) in
  Printf.sprintf "%08x%s%s" (String.length payload) (Siphash.hash_hex key payload) payload

let printf_pack fields =
  String.concat "" (List.map (fun f -> Printf.sprintf "%08x%s" (String.length f) f) fields)

(* Random payloads of 0-300 bytes, plus one holding every byte value. *)
let random_payloads seed n =
  let prng = Prng.create seed in
  String.init 256 Char.chr
  :: List.init n (fun _ -> String.init (Prng.int prng 301) (fun _ -> Char.chr (Prng.int prng 256)))

let test_frame_matches_printf () =
  let payloads = random_payloads 7L 200 in
  List.iteri
    (fun i p ->
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "payload %d under %S" i name)
            (printf_frame name p)
            (Frame.encode (Frame.key name) p))
        [ "tcp"; "svc.S.wal"; "" ])
    payloads;
  Alcotest.(check string)
    "encode_all is the concatenation" (String.concat "" (List.map (printf_frame "log") payloads))
    (Frame.encode_all (Frame.key "log") payloads);
  checki "tcp key" 0 (compare (Frame.key "tcp") (Siphash.key_of_string "oasis.wal:tcp"));
  let fields = List.filteri (fun i _ -> i < 6) payloads in
  Alcotest.(check string) "pack" (printf_pack fields) (Frame.pack fields);
  checkb "unpack inverts pack" true (Frame.unpack (Frame.pack fields) = Some fields);
  checkb "unpack rejects a truncated envelope" true
    (Frame.unpack (String.sub (Frame.pack fields) 0 20) = None)

(* Every decoded frame from [off] up to [limit], and what stopped the run. *)
let decode_run key s ~limit =
  let rec go off acc =
    match Frame.decode_at key s ~off ~limit with
    | Frame.Payload (p, next) -> go next (p :: acc)
    | stop -> (List.rev acc, stop)
  in
  go 0 []

let test_frame_split_points () =
  let key = Frame.key "log" in
  let payloads = [ "a"; ""; String.make 40 '\x00'; "0000000a"; String.init 256 Char.chr ] in
  let framed = Frame.encode_all key payloads in
  (* Frame [i] ends at [ends.(i)]. *)
  let ends =
    Array.of_list
      (List.rev
         (snd
            (List.fold_left
               (fun (off, acc) p ->
                 let e = off + Frame.header + String.length p in
                 (e, e :: acc))
               (0, []) payloads)))
  in
  for cut = 0 to String.length framed do
    let got, stop = decode_run key framed ~limit:cut in
    let whole = List.filteri (fun i _ -> ends.(i) <= cut) payloads in
    Alcotest.(check (list string)) (Printf.sprintf "payloads before cut %d" cut) whole got;
    match stop with
    | Frame.Short need ->
        let off = if whole = [] then 0 else ends.(List.length whole - 1) in
        checkb (Printf.sprintf "cut %d is short of a frame" cut) true (off + need > cut)
    | Frame.Bad -> Alcotest.failf "cut %d decodes as a bad frame" cut
    | Frame.Payload _ -> assert false
  done;
  let one = Frame.encode key "0123456789" in
  let decode s = Frame.decode_at key s ~off:0 ~limit:(String.length s) in
  checkb "intact" true (decode one = Frame.Payload ("0123456789", String.length one));
  let set s i c = String.mapi (fun j d -> if j = i then c else d) s in
  let flip = if one.[12] = '0' then '1' else '0' in
  checkb "one flipped checksum digit" true (decode (set one 12 flip) = Frame.Bad);
  checkb "the length field ends in a letter" true (String.sub one 0 8 = "0000000a");
  checkb "uppercase hex length is bad" true (decode (set one 7 'A') = Frame.Bad);
  checkb "non-hex length is bad" true (decode (set one 0 'g') = Frame.Bad);
  checkb "wrong key" true
    (Frame.decode_at (Frame.key "other") one ~off:0 ~limit:(String.length one) = Frame.Bad)

(* Property: the recovery scan is total and prefix-stable under arbitrary
   single-byte corruption and truncation of the framed bytes. *)
let test_wal_decoder_fuzz () =
  let records = List.init 12 (fun i -> Printf.sprintf "payload-%d-%s" i (String.make i 'y')) in
  let key = Frame.key "log" in
  let framed = Frame.encode_all key records in
  let is_prefix l = records = l @ List.filteri (fun i _ -> i >= List.length l) records in
  for seed = 1 to 50 do
    let prng = Prng.create (Int64.of_int seed) in
    let mutated =
      if Prng.bool prng then begin
        (* Flip one random byte. *)
        let b = Bytes.of_string framed in
        let i = Prng.int prng (Bytes.length b) in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int prng 255)));
        Bytes.to_string b
      end
      else String.sub framed 0 (Prng.int prng (String.length framed + 1))
    in
    let decoded =
      try Frame.scan key mutated
      with e -> Alcotest.failf "decoder raised on seed %d: %s" seed (Printexc.to_string e)
    in
    checkb
      (Printf.sprintf "seed %d decodes to a prefix" seed)
      true (is_prefix decoded);
    (* Wrong key: nothing validates. *)
    checkb "other file's key rejects all" true (Frame.scan (Frame.key "other") mutated = [])
  done

(* An fsync issued before an atomic replace that lands first (a short
   compacted log overtaking a longer flush) must not mark bytes durable
   past the end of the new contents: its target moves with the bytes it
   covered. *)
let test_disk_fsync_racing_shrinking_replace () =
  let w = make_dworld () in
  Disk.append w.disk ~file:"f" (String.make 10_000 'a');
  let flushed = ref false in
  Disk.fsync w.disk ~file:"f" (fun () -> flushed := true);
  Disk.write_atomic w.disk ~file:"f" "short" (fun () -> ());
  Disk.append w.disk ~file:"f" "tail";
  drun w 1.0;
  checkb "flush completed" true !flushed;
  checkb "new contents durable; the later append is not" true
    (Disk.read w.disk ~file:"f" = "short" && Disk.unsynced w.disk ~file:"f" = 4);
  Disk.fsync w.disk ~file:"f" (fun () -> ());
  drun w 1.0;
  checkb "a later flush covers the tail" true (Disk.read w.disk ~file:"f" = "shorttail")

(* --- journal checkpoints --- *)

(* A journal over a list of records whose image is everything put so far,
   checkpointing every [every] puts while the image holds at most [every]
   records. *)
let list_journal w ~every =
  let applied = ref [] in
  let j = Journal.create w.disk ~file:"j" ~every ~image:(fun () -> List.rev !applied) in
  let put r =
    applied := r :: !applied;
    Journal.append j r
  in
  (j, applied, put)

let test_snapshot_atomic_across_crash () =
  let w = make_dworld ~seed:9L () in
  let state = ref [] in
  let j = Journal.create w.disk ~file:"j" ~every:1 ~image:(fun () -> !state) in
  checkb "empty before the first checkpoint" true (Journal.records j = []);
  state := [ "state-v1" ];
  Journal.append j "a";
  drun w 1.0;
  checkb "v1 image loads, log compacted" true (Journal.records j = [ "state-v1" ]);
  (* Crash while the second image write is in flight: the old image
     survives whole — never a torn mixture. *)
  state := [ "state-v2-much-longer-payload" ];
  Journal.append j "b";
  Net.crash_host w.net w.host;
  drun w 1.0;
  Net.restart_host w.net w.host;
  (match Journal.records j with
  | "state-v1" :: log ->
      checkb "old image intact after crashed save" true (log = [] || log = [ "b" ])
  | _ -> Alcotest.fail "old image lost after a crashed save");
  state := [ "state-v3" ];
  Journal.append j "c";
  drun w 1.0;
  checkb "fresh checkpoint replaces it" true (Journal.records j = [ "state-v3" ])

let test_snapshot_bounds_replay () =
  let w = make_dworld () in
  let j, _, put = list_journal w ~every:3 in
  List.iter put [ "a"; "b"; "c" ];
  drun w 1.0;
  (* The third put checkpointed: the image covers a,b,c; the log restarts
     empty. *)
  checkb "log compacted after the durable image" true (Journal.log_records j = []);
  List.iter put [ "d"; "e" ];
  Journal.sync j (fun () -> ());
  drun w 1.0;
  checkb "image + suffix" true
    (Journal.records j = [ "a"; "b"; "c"; "d"; "e" ] && Journal.log_records j = [ "d"; "e" ]);
  checki "one image written" 1 (Stats.count (Net.stats w.net) "store.snapshot")

(* Step the engine one event at a time until [p] holds. *)
let step_until w p =
  while not (p ()) do
    if not (Engine.step w.engine) then Alcotest.fail "engine drained before the crash point"
  done

(* The checkpoint's three crash windows, over an upsert mirror: before the
   new image is durable (old image + old log), between image and log
   rewrite (new image + old log, which repeats what the image holds), and
   after the rewrite (new image + tail).  Every window must replay to the
   same mirror. *)
let test_journal_crash_windows () =
  let puts =
    [ ("a", "1"); ("b", "1"); ("c", "1"); ("a", "2") ]
    @ [ ("b", "2"); ("d", "1"); ("a", "3"); ("e", "1") ]
  in
  let expected = [ ("a", "3"); ("b", "2"); ("c", "1"); ("d", "1"); ("e", "1") ] in
  let replay records =
    let m = Hashtbl.create 8 in
    List.iter
      (fun r ->
        match String.split_on_char '=' r with [ k; v ] -> Hashtbl.replace m k v | _ -> ())
      records;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [] |> List.sort compare
  in
  let mirror_after crash_point =
    let w = make_dworld ~seed:11L () in
    let mirror = Hashtbl.create 8 in
    let image () =
      Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) mirror [] |> List.sort String.compare
    in
    let j = Journal.create w.disk ~file:"j" ~every:4 ~image in
    let put (k, v) =
      Hashtbl.replace mirror k v;
      Journal.append j (k ^ "=" ^ v)
    in
    let snap_bytes () = Disk.durable_size w.disk ~file:"j.snap" in
    (* The first four puts checkpoint once, completely. *)
    List.iteri (fun i kv -> if i < 4 then put kv) puts;
    drun w 1.0;
    let first_image = snap_bytes () in
    (* The next three are durable in the log only; the eighth triggers the
       second checkpoint, and its own log record is synced. *)
    List.iteri (fun i kv -> if i >= 4 && i < 7 then put kv) puts;
    Journal.sync j (fun () -> ());
    drun w 1.0;
    let log_durable = ref false in
    put (List.nth puts 7);
    Journal.sync j (fun () -> log_durable := true);
    (match crash_point with
    | `Before_image ->
        step_until w (fun () -> !log_durable);
        checkb "image not yet durable" true (snap_bytes () = first_image)
    | `Between ->
        step_until w (fun () -> !log_durable && snap_bytes () <> first_image);
        checki "log not yet rewritten" 4 (List.length (Journal.log_records j))
    | `After ->
        drun w 1.0;
        checki "log rewritten to the empty tail" 0 (List.length (Journal.log_records j)));
    Net.crash_host w.net w.host;
    drun w 1.0;
    Net.restart_host w.net w.host;
    replay (Journal.records j)
  in
  List.iter
    (fun (label, point) ->
      checkb (label ^ ": replay reaches the pre-crash mirror") true (mirror_after point = expected))
    [
      ("before image", `Before_image);
      ("between image and rewrite", `Between);
      ("after rewrite", `After);
    ]

(* The amortized trigger on a journal whose image grows with every append
   (a mirror that only gains entries).  The engine runs between batches of
   puts, so each checkpoint completes before the next can trigger. *)
let grown_journal ?seed ~every n =
  let w = make_dworld ?seed () in
  let applied = ref [] in
  let images = ref [] in
  let image () =
    let recs = List.rev !applied in
    images := List.length recs :: !images;
    recs
  in
  let j = Journal.create w.disk ~file:"j" ~every ~image in
  let put i =
    let r = Printf.sprintf "r%d" i in
    applied := r :: !applied;
    Journal.append j r
  in
  for i = 0 to n - 1 do
    put i;
    if i mod 64 = 63 then drun w 0.05
  done;
  Journal.sync j (fun () -> ());
  drun w 1.0;
  (w, j, images, put)

let test_journal_amortized_checkpoints () =
  let n = 20_000 and every = 16 in
  let w, j, images, _ = grown_journal ~every n in
  let count = List.length !images in
  let bound = int_of_float (Float.log2 (float_of_int n /. float_of_int every)) + 2 in
  checkb (Printf.sprintf "%d checkpoints <= log2(N/every) + 2 = %d" count bound) true
    (count >= 1 && count <= bound);
  checki "every trigger wrote an image" count (Stats.count (Net.stats w.net) "store.snapshot");
  let last = List.hd !images and total = List.fold_left ( + ) 0 !images in
  checkb (Printf.sprintf "image records written %d <= 3x the last image %d" total last) true
    (total <= 3 * last);
  checkb "log holds at most about one image" true
    (List.length (Journal.log_records j) <= max every last);
  let all = List.sort compare (List.init n (Printf.sprintf "r%d")) in
  checkb "replay recovers every record once" true
    (List.sort compare (Journal.records j) = all)

(* Crash a grown journal inside the next checkpoint's three windows (as
   {!test_journal_crash_windows} does for a small one).  The puts up to the
   trigger were synced beforehand; the trigger's own records join them once
   their sync fires.  Every synced record recovers, and nothing else. *)
let test_journal_amortized_crash_windows () =
  let n = 20_000 in
  let recovered crash_point =
    let w, j, images, put = grown_journal ~seed:13L ~every:16 n in
    let snap_bytes () = Disk.durable_size w.disk ~file:"j.snap" in
    let before = snap_bytes () and checkpoints = List.length !images in
    let next = ref n in
    while List.length !images = checkpoints do
      put !next;
      incr next
    done;
    let log_durable = ref false in
    Journal.sync j (fun () -> log_durable := true);
    (match crash_point with
    | `Before_image -> checkb "image not yet durable" true (snap_bytes () = before)
    | `Between ->
        step_until w (fun () -> snap_bytes () <> before);
        checkb "log not yet rewritten" true (List.length (Journal.log_records j) >= n / 2)
    | `After ->
        drun w 1.0;
        checki "log rewritten to the empty tail" 0 (List.length (Journal.log_records j)));
    let synced = if !log_durable then !next else n in
    Net.crash_host w.net w.host;
    drun w 1.0;
    Net.restart_host w.net w.host;
    let got = Hashtbl.create n in
    List.iter (fun r -> Hashtbl.replace got r ()) (Journal.records j);
    let missing =
      List.init synced Fun.id |> List.filter (fun i -> not (Hashtbl.mem got (Printf.sprintf "r%d" i)))
    in
    (List.length missing, Hashtbl.length got <= !next)
  in
  List.iter
    (fun (label, point) ->
      let missing, bounded = recovered point in
      checki (label ^ ": every synced record recovers") 0 missing;
      checkb (label ^ ": no record invented") true bounded)
    [
      ("before image", `Before_image);
      ("between image and rewrite", `Between);
      ("after rewrite", `After);
    ]

(* The broker's retained events are not idempotent upserts: a crash between
   its checkpoint's image save and log rewrite recovers the image AND the
   old log holding the same events.  The restart must keep each event once,
   in seq order, and a retrospective registration must deliver each once. *)
let test_broker_checkpoint_crash_window () =
  let w = make_dworld ~seed:12L () in
  let client_host = Net.add_host w.net "client" in
  let srv = Broker.create_server w.net w.host ~name:"b" ~disk:w.disk () in
  let signal () = ignore (Broker.signal srv "E" [ V.Int 0 ]) in
  for _ = 1 to 255 do
    signal ()
  done;
  drun w 0.5;
  checki "no checkpoint before 256 appends" 0 (Stats.count (Net.stats w.net) "store.snapshot");
  (* The 256th append starts the checkpoint; a few more land in its tail. *)
  for _ = 1 to 5 do
    signal ()
  done;
  checki "checkpoint started" 1 (Stats.count (Net.stats w.net) "store.snapshot");
  let wal_records () =
    Frame.scan (Frame.key "broker.b.wal") (Disk.read w.disk ~file:"broker.b.wal")
  in
  step_until w (fun () -> Disk.durable_size w.disk ~file:"broker.b.snap" > 0);
  checki "old log still in place" 255 (List.length (wal_records ()));
  Net.crash_host w.net w.host;
  drun w 1.0;
  Net.restart_host w.net w.host;
  let retained = Broker.server_retained srv in
  checkb "the image's 256 events survive" true (retained >= 256 && retained <= 260);
  let got = ref [] in
  Broker.connect w.net client_host srv
    ~on_result:(function
      | Ok s ->
          ignore
            (Broker.register s ~since:0.0 (Event.template "E" [ Event.Any ]) (fun e ->
                 got := e.Event.seq :: !got))
      | Error e -> Alcotest.failf "connect: %s" e)
    ();
  drun w 2.0;
  checkb "retrospective registration delivers each event once, in seq order" true
    (List.rev !got = List.init retained Fun.id)

(* --- the ledger's record grammar --- *)

module Ledger = Oasis_core.Ledger
module Credrec = Oasis_core.Credrec

(* Role, argument and peer names are free-form bytes: draw them from an
   alphabet holding every separator the record grammar uses. *)
let ledger_bytes prng =
  let alphabet = "ab\x00\x01\x1c\x1d\x1e\x1f=;.\xff" in
  String.init (Prng.int prng 5) (fun _ -> alphabet.[Prng.int prng (String.length alphabet)])

(* A seeded run of random fire / hire / issue / invalidate transitions on a
   durable ledger that checkpoints every 8 appends, with the engine stepped
   between bursts so checkpoints land mid-run.  Returns the live ledger and
   what a recovery replays: the image's records, then the log's. *)
let ledger_run seed =
  let w = make_dworld () in
  let prng = Prng.create (Int64.of_int seed) in
  let l = Ledger.create w.net w.host ~disk:w.disk ~file:"svc.L" ~every:8 () in
  let table = Credrec.create_table () in
  let instances = Array.init 6 (fun _ -> (ledger_bytes prng, ledger_bytes prng)) in
  let issued = ref [] in
  let some_issued () = Prng.pick prng (Array.of_list !issued) in
  let fresh_key () = Credrec.marshal_ref (Credrec.leaf table ()) in
  for step = 1 to 200 do
    (match Prng.int prng 5 with
    | 0 -> Ledger.fire l (Prng.pick prng instances)
    | 1 -> Ledger.hire l (Prng.pick prng instances)
    | 2 | 3 ->
        (* Now and then re-issue a record already issued: not re-logged. *)
        let crr =
          if !issued <> [] && Prng.int prng 4 = 0 then some_issued () else Credrec.leaf table ()
        in
        let deps =
          List.init (Prng.int prng 3) (fun _ ->
              if Prng.bool prng then Ledger.Dext (ledger_bytes prng, fresh_key ())
              else Ledger.Dloc (fresh_key ()))
        in
        let rbrs =
          List.init (Prng.int prng 3) (fun _ ->
              (ledger_bytes prng, ledger_bytes prng, ledger_bytes prng))
        in
        Ledger.issue l crr ~deps ~rbrs;
        issued := crr :: !issued
    | _ -> if !issued <> [] then Ledger.invalidate l (some_issued ()));
    if step mod 25 = 0 then drun w 0.05
  done;
  Ledger.flush l;
  drun w 1.0;
  let journal = Option.get (Ledger.journal l) in
  checkb (Printf.sprintf "seed %d checkpointed" seed) true (Journal.image_bytes journal > 0);
  (l, Journal.records journal)

(* A ledger with no disk, rebuilt by replaying [records] into it. *)
let ledger_replay records =
  let w = make_dworld () in
  let l = Ledger.create w.net w.host ~file:"svc.R" ~every:8 () in
  List.iter (Ledger.apply_record l) records;
  l

let test_ledger_replay_rebuilds_mirror () =
  for seed = 1 to 30 do
    let live, records = ledger_run seed in
    let image = Ledger.image live in
    checkb (Printf.sprintf "seed %d: mirror not empty" seed) true (image <> []);
    checkb
      (Printf.sprintf "seed %d: image then log rebuilds the live mirror" seed)
      true
      (Ledger.image (ledger_replay records) = image)
  done

let test_ledger_ignores_unknown_tags () =
  let _, records = ledger_run 7 in
  let image = Ledger.image (ledger_replay records) in
  checki "no barrier yet" 0 (Ledger.last_barrier records);
  (* A replica group's stream: an epoch barrier after every record. *)
  let stream = List.concat (List.mapi (fun i r -> [ r; Ledger.barrier (i + 1) ]) records) in
  checki "last barrier" (List.length records) (Ledger.last_barrier stream);
  checkb "barriers are skipped" true (Ledger.image (ledger_replay stream) = image);
  let noise =
    [ Ledger.barrier 3; "B\x1fnot-an-epoch"; "Z\x1f61\x1f62"; "f\x1f61\x1f62"; ""; "\x1f"; "\x1c" ]
  in
  checkb "unknown tags are skipped" true (Ledger.image (ledger_replay (records @ noise)) = image)

let test_ledger_skips_damaged_records () =
  let _, records = ledger_run 11 in
  let prng = Prng.create 11L in
  let fields r = List.length (String.split_on_char '\x1f' r) in
  let apply_alone r =
    let l = ledger_replay [] in
    (try Ledger.apply_record l r
     with e -> Alcotest.failf "record %S raised %s" r (Printexc.to_string e));
    Ledger.image l
  in
  List.iter
    (fun r ->
      for n = 0 to String.length r - 1 do
        let cut = String.sub r 0 n in
        let image = apply_alone cut in
        if fields cut < fields r then
          checkb (Printf.sprintf "truncated %S is skipped" cut) true (image = [])
      done;
      let b = Bytes.of_string r in
      Bytes.set b (Prng.int prng (Bytes.length b)) (Char.chr (Prng.int prng 256));
      ignore (apply_alone (Bytes.to_string b)))
    records

(* --- service recovery (§4.11 persistence) --- *)

let meet_rolefile =
  {|
Chair <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* |>* Chair : u in staff
|}

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

type sworld = {
  s_engine : Engine.t;
  s_net : Net.t;
  s_client_host : Net.host;
  s_login : Service.t;
  s_meet : Service.t;
}

let fresh_vci =
  let host = Principal.Host.create "storeclienthost" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

let srun w dt = Engine.run ~until:(Engine.now w.s_engine +. dt) w.s_engine

let durable_world ?(seed = 42L) () =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let meet_host = Net.add_host net "h.meet" in
  let disk = Disk.create net meet_host () in
  let mk name host rolefile extra =
    match extra (Service.create net host reg ~name ~rolefile) with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  let login = mk "Login" login_host login_rolefile (fun f -> f ()) in
  let meet = mk "Meet" meet_host meet_rolefile (fun f -> f ~disk ()) in
  { s_engine = engine; s_net = net; s_client_host = client_host; s_login = login; s_meet = meet }

let entry w svc ~client ~role ?creds () =
  let result = ref None in
  Service.request_entry svc ~client_host:w.s_client_host ~client ~role ?creds (fun r ->
      result := Some r);
  srun w 2.0;
  match !result with Some r -> r | None -> Alcotest.fail "entry did not complete"

let entry_ok w svc ~client ~role ?creds () =
  match entry w svc ~client ~role ?creds () with
  | Ok c -> c
  | Error e -> Alcotest.failf "entry to %s failed: %s" role e

let logged_on w user =
  let vci = fresh_vci () in
  ( vci,
    Service.issue_arbitrary w.s_login ~client:vci ~roles:[ "LoggedOn" ]
      ~args:[ V.Str user; V.Str "ely" ] )

let fire w ~chair ~user =
  let result = ref None in
  Service.revoke_role_instance w.s_meet ~client_host:w.s_client_host ~revoker:chair
    ~role:"Member" ~args:[ V.Str user ] (fun r -> result := Some r);
  srun w 2.0;
  match !result with
  | Some (Ok n) -> n
  | Some (Error e) -> Alcotest.failf "fire %s: %s" user e
  | None -> Alcotest.fail "fire did not complete"

let crash_restart_meet w =
  (* Past the group-commit window, so acknowledged operations are on the
     platter; then a full crash/restart cycle plus recovery and reread. *)
  srun w 0.2;
  Net.crash_host w.s_net (Service.host w.s_meet);
  srun w 1.0;
  Net.restart_host w.s_net (Service.host w.s_meet);
  srun w 3.0

(* §4.11 regression: "fired is forever" must survive a crash of the
   service host.  The fired principal stays locked out after recovery; the
   control principal's certificate comes back to life. *)
let test_fired_stays_fired_across_crash () =
  let w = durable_world () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  Group.add (Service.group w.s_meet "staff") (V.Str "mary");
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w w.s_meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let fred, fred_cert = logged_on w "fred" in
  let mary, mary_cert = logged_on w "mary" in
  let fred_member = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  let mary_member = entry_ok w w.s_meet ~client:mary ~role:"Member" ~creds:[ mary_cert ] () in
  checki "fred revoked by role" 1 (fire w ~chair ~user:"fred");
  checkb "fred out before the crash" true
    (Service.validate w.s_meet ~client:fred fred_member = Error Service.Revoked);
  crash_restart_meet w;
  checkb "blacklist recovered" true
    (Service.blacklisted w.s_meet ~role:"Member" ~args:[ V.Str "fred" ]);
  checkb "fred still revoked after recovery" true
    (Service.validate w.s_meet ~client:fred fred_member = Error Service.Revoked);
  checkb "fred cannot re-enter after recovery" true
    (Result.is_error (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()));
  (* Control: an unfired membership must recover to valid... *)
  checkb "mary's certificate survives the crash" true
    (Service.validate w.s_meet ~client:mary mary_member = Ok ());
  (* ...and the recovered revoker arm still works: firing mary AFTER
     recovery revokes the restored record. *)
  checki "mary fired after recovery" 1 (fire w ~chair ~user:"mary");
  checkb "mary revoked via recovered arm" true
    (Service.validate w.s_meet ~client:mary mary_member = Error Service.Revoked)

let test_rehire_survives_crash () =
  let w = durable_world ~seed:43L () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w w.s_meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let fred, fred_cert = logged_on w "fred" in
  let _ = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  checki "fired" 1 (fire w ~chair ~user:"fred");
  let rehired = ref None in
  Service.reinstate_role_instance w.s_meet ~client_host:w.s_client_host ~revoker:chair
    ~role:"Member" ~args:[ V.Str "fred" ] (fun r -> rehired := Some r);
  srun w 2.0;
  checkb "re-hired" true (!rehired = Some (Ok ()));
  crash_restart_meet w;
  checkb "re-hire survived the crash" true
    (not (Service.blacklisted w.s_meet ~role:"Member" ~args:[ V.Str "fred" ]));
  checkb "fred can re-enter after recovery" true
    (Result.is_ok (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

(* An unsynced issue lost with the crash must fail CLOSED: the certificate
   is unknown to the recovered service and validates as revoked, never as
   valid. *)
let test_lost_tail_fails_closed () =
  let w = durable_world ~seed:44L () in
  Group.add (Service.group w.s_meet "staff") (V.Str "fred");
  let fred, fred_cert = logged_on w "fred" in
  let member = entry_ok w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] () in
  (* Crash IMMEDIATELY: the issue record is (with these seeds) still in the
     group-commit window.  Whatever survives, validation must never say
     Ok while the backing record was not recovered. *)
  Net.crash_host w.s_net (Service.host w.s_meet);
  srun w 1.0;
  Net.restart_host w.s_net (Service.host w.s_meet);
  srun w 4.0;
  (match Service.validate w.s_meet ~client:fred member with
  | Ok () ->
      (* Legal only if the record made it to the platter and was restored. *)
      checkb "validated Ok implies the issue was recovered" true
        (Service.durable_issued w.s_meet >= 1)
  | Error _ -> ());
  (* And re-entry still works: recovery leaves a functioning service. *)
  checkb "service still issues after recovery" true
    (Result.is_ok (entry w w.s_meet ~client:fred ~role:"Member" ~creds:[ fred_cert ] ()))

let test_snapshot_checkpoint_in_service () =
  (* snapshot_every=8 forces several checkpoint cycles; recovery must load
     snapshot + suffix and still refuse the fired principal. *)
  let engine = Engine.create () in
  let net = Net.create ~seed:45L ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let login_host = Net.add_host net "h.login" in
  let meet_host = Net.add_host net "h.meet" in
  let disk = Disk.create net meet_host () in
  let login =
    match Service.create net login_host reg ~name:"Login" ~rolefile:login_rolefile () with
    | Ok s -> s
    | Error e -> Alcotest.failf "login: %s" e
  in
  let meet =
    match
      Service.create net meet_host reg ~name:"Meet" ~rolefile:meet_rolefile ~disk
        ~snapshot_every:8 ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "meet: %s" e
  in
  let w =
    { s_engine = engine; s_net = net; s_client_host = client_host; s_login = login; s_meet = meet }
  in
  let users = List.init 12 (fun i -> Printf.sprintf "u%d" i) in
  List.iter (fun u -> Group.add (Service.group meet "staff") (V.Str u)) users;
  let jmb, jmb_cert = logged_on w "jmb" in
  let chair = entry_ok w meet ~client:jmb ~role:"Chair" ~creds:[ jmb_cert ] () in
  let members =
    List.map
      (fun u ->
        let vci, cert = logged_on w u in
        (u, vci, entry_ok w meet ~client:vci ~role:"Member" ~creds:[ cert ] ()))
      users
  in
  checki "fired u3" 1 (fire w ~chair ~user:"u3");
  checkb "snapshot actually written" true
    (Stats.count (Net.stats net) "store.snapshot" >= 1);
  crash_restart_meet w;
  List.iter
    (fun (u, vci, m) ->
      if u = "u3" then
        checkb "fired user stays revoked" true
          (Service.validate meet ~client:vci m = Error Service.Revoked)
      else
        checkb (Printf.sprintf "%s survives via snapshot+log" u) true
          (Service.validate meet ~client:vci m = Ok ()))
    members;
  checkb "recovery instrumented" true (Stats.count (Net.stats net) "oasis.recover" >= 1)

let () =
  Alcotest.run "store"
    [
      ( "wal",
        [
          Alcotest.test_case "append/sync/recover roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "group commit coalesces fsyncs" `Quick
            test_wal_group_commit_coalesces_fsyncs;
          Alcotest.test_case "durability callbacks die with the host" `Quick
            test_wal_durability_callback_after_crash;
          Alcotest.test_case "crash recovers a checksummed prefix" `Quick
            test_wal_crash_recovers_synced_prefix;
          Alcotest.test_case "rewrite refuses pending durability callbacks" `Quick
            test_wal_rewrite_refuses_pending_callbacks;
          Alcotest.test_case "decoder total under corruption (fuzz)" `Quick test_wal_decoder_fuzz;
        ] );
      ( "frame",
        [
          Alcotest.test_case "encode matches the printf framing" `Quick test_frame_matches_printf;
          Alcotest.test_case "every split point is short, never bad" `Quick
            test_frame_split_points;
        ] );
      ( "disk",
        [
          Alcotest.test_case "fsync racing a shrinking atomic replace" `Quick
            test_disk_fsync_racing_shrinking_replace;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "atomic across crash" `Quick test_snapshot_atomic_across_crash;
          Alcotest.test_case "bounds replay to the log suffix" `Quick test_snapshot_bounds_replay;
        ] );
      ( "journal",
        [
          Alcotest.test_case "every checkpoint crash window replays the same mirror" `Quick
            test_journal_crash_windows;
          Alcotest.test_case "amortized trigger: O(log N) checkpoints, linear image work" `Quick
            test_journal_amortized_checkpoints;
          Alcotest.test_case "amortized trigger: a grown journal's crash windows lose nothing"
            `Quick test_journal_amortized_crash_windows;
          Alcotest.test_case "broker crash between image and rewrite keeps events once" `Quick
            test_broker_checkpoint_crash_window;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "image then log rebuilds the live mirror (seeded)" `Quick
            test_ledger_replay_rebuilds_mirror;
          Alcotest.test_case "unknown tags and epoch barriers are skipped" `Quick
            test_ledger_ignores_unknown_tags;
          Alcotest.test_case "truncated or garbled records are skipped" `Quick
            test_ledger_skips_damaged_records;
        ] );
      ( "service-recovery",
        [
          Alcotest.test_case "fired stays fired across crash (§4.11)" `Quick
            test_fired_stays_fired_across_crash;
          Alcotest.test_case "re-hire survives crash" `Quick test_rehire_survives_crash;
          Alcotest.test_case "lost tail fails closed" `Quick test_lost_tail_fails_closed;
          Alcotest.test_case "snapshot checkpointing in the service" `Quick
            test_snapshot_checkpoint_in_service;
        ] );
    ]
