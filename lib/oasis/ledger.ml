(* The §4.11 ledger (see ledger.mli): the blacklist, the issued mirror,
   their journal record grammar and the durable ack. *)

module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Disk = Oasis_store.Disk
module Journal = Oasis_store.Journal
module Hex = Oasis_util.Hex

type dep = Dext of string * string | Dloc of string
type rbr = string * string * string
type issued = { mutable i_alive : bool; i_deps : dep list; i_rbrs : rbr list }

type t = {
  l_net : Net.t;
  l_host : Net.host;
  l_blacklist : (string * string, unit) Hashtbl.t;
  l_issued : (string, issued) Hashtbl.t;  (* marshalled local ref -> record *)
  l_journal : Journal.t option;
  mutable l_quorum : ((unit -> unit) -> unit) option;
      (* replication quorum hook (see {!Replica}): when set, acks wait for
         a write quorum instead of just the local group commit *)
}

(* --- the record grammar --- *)

let rec_fire (role, argskey) = String.concat "\x1f" [ "F"; Hex.encode role; Hex.encode argskey ]
let rec_hire (role, argskey) = String.concat "\x1f" [ "H"; Hex.encode role; Hex.encode argskey ]
let rec_invalidate key = String.concat "\x1f" [ "V"; key ]

let enc_dep = function
  | Dext (peer, rkey) -> String.concat "\x1d" [ "E"; Hex.encode peer; rkey ]
  | Dloc key -> String.concat "\x1d" [ "L"; key ]

let dec_dep s =
  match String.split_on_char '\x1d' s with
  | [ "E"; peer; rkey ] -> Option.map (fun p -> Dext (p, rkey)) (Hex.decode peer)
  | [ "L"; key ] -> Some (Dloc key)
  | _ -> None

let enc_rbr (role, argskey, revoker) =
  String.concat "\x1d" [ Hex.encode role; Hex.encode argskey; Hex.encode revoker ]

let dec_rbr s =
  match String.split_on_char '\x1d' s with
  | [ role; argskey; revoker ] ->
      let ( let* ) = Option.bind in
      let* role = Hex.decode role in
      let* argskey = Hex.decode argskey in
      let* revoker = Hex.decode revoker in
      Some (role, argskey, revoker)
  | _ -> None

let rec_issue key deps rbrs =
  String.concat "\x1f"
    [
      "I";
      key;
      String.concat "\x1e" (List.map enc_dep deps);
      String.concat "\x1e" (List.map enc_rbr rbrs);
    ]

let split_items s = if s = "" then [] else String.split_on_char '\x1e' s

let apply_record t line =
  match String.split_on_char '\x1f' line with
  | [ "F"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.replace t.l_blacklist (role, argskey) ()
      | _ -> ())
  | [ "H"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.remove t.l_blacklist (role, argskey)
      | _ -> ())
  | [ "I"; key; deps; rbrs ] ->
      let deps = List.filter_map dec_dep (split_items deps) in
      let rbrs = List.filter_map dec_rbr (split_items rbrs) in
      Hashtbl.replace t.l_issued key { i_alive = true; i_deps = deps; i_rbrs = rbrs }
  | [ "V"; key ] -> (
      match Hashtbl.find_opt t.l_issued key with Some i -> i.i_alive <- false | None -> ())
  | _ -> ()

let serialize_mirror blacklist issued =
  let dead =
    Hashtbl.fold (fun key i acc -> if i.i_alive then acc else key :: acc) issued []
  in
  List.iter (Hashtbl.remove issued) dead;
  let fires =
    Hashtbl.fold (fun key () acc -> rec_fire key :: acc) blacklist []
    |> List.sort String.compare
  in
  let issues =
    Hashtbl.fold (fun key i acc -> rec_issue key i.i_deps i.i_rbrs :: acc) issued []
    |> List.sort String.compare
  in
  fires @ issues

let image t = serialize_mirror t.l_blacklist t.l_issued

(* A barrier is shaped like a journal record with the reserved tag "B", so
   [apply_record] skips it and a log's content carries its own
   reconciliation history. *)
let barrier epoch = String.concat "\x1f" [ "B"; string_of_int epoch ]

let last_barrier records =
  List.fold_left
    (fun acc r ->
      match String.split_on_char '\x1f' r with
      | [ "B"; e ] -> ( match int_of_string_opt e with Some e -> e | None -> acc)
      | _ -> acc)
    0 records

(* --- the ledger --- *)

let create net host ?disk ~file ~every () =
  let blacklist = Hashtbl.create 16 in
  let issued = Hashtbl.create 64 in
  {
    l_net = net;
    l_host = host;
    l_blacklist = blacklist;
    l_issued = issued;
    l_journal =
      Option.map
        (fun d ->
          Journal.create d ~file ~every ~image:(fun () -> serialize_mirror blacklist issued))
        disk;
    l_quorum = None;
  }

let journal t = t.l_journal
let append t line = Option.iter (fun j -> Journal.append j line) t.l_journal
let fired t key = Hashtbl.mem t.l_blacklist key

let fire t key =
  Hashtbl.replace t.l_blacklist key ();
  append t (rec_fire key)

let hire t key =
  Hashtbl.remove t.l_blacklist key;
  append t (rec_hire key)

let issue t crr ~deps ~rbrs =
  if t.l_journal <> None then begin
    let key = Credrec.marshal_ref crr in
    if not (Hashtbl.mem t.l_issued key) then begin
      let deps = List.sort_uniq compare deps in
      let rbrs = List.sort_uniq compare rbrs in
      Hashtbl.replace t.l_issued key { i_alive = true; i_deps = deps; i_rbrs = rbrs };
      append t (rec_issue key deps rbrs)
    end
  end

let invalidate t cref =
  if t.l_journal <> None then begin
    let key = Credrec.marshal_ref cref in
    match Hashtbl.find_opt t.l_issued key with
    | Some i when i.i_alive ->
        i.i_alive <- false;
        append t (rec_invalidate key)
    | _ -> ()
  end

let record_deaths t table =
  Hashtbl.fold (fun key i acc -> if i.i_alive then key :: acc else acc) t.l_issued []
  |> List.iter (fun key ->
         match Credrec.unmarshal_ref key with
         | Some cref when Credrec.state table cref = Credrec.False -> invalidate t cref
         | _ -> ())

let find_issued t key = Hashtbl.find_opt t.l_issued key

let issued_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.l_issued [] |> List.sort String.compare

let iter_issued t f = Hashtbl.iter (fun key _ -> f key) t.l_issued
let live_issued t = Hashtbl.fold (fun _ i n -> if i.i_alive then n + 1 else n) t.l_issued 0

(* Acks must not outrun the journal: if the service crashed in the
   group-commit window after replying Ok, recovery would resurrect a
   membership the revoker was told is gone.  So success replies ride the
   next fsync — or, under replication, a write quorum of the replica
   group, so even losing the primary's disk cannot lose an acknowledged
   transition. *)
let ack t k =
  match (t.l_quorum, t.l_journal) with
  | Some quorum, _ -> quorum k
  | None, Some j -> Journal.sync j k
  | None, None -> k ()

(* A replicated journal never compacts: it is the replica group's shipped
   record stream. *)
let set_replication t ~sync =
  t.l_quorum <- Some sync;
  Option.iter Journal.set_replicated t.l_journal

let flush t = Option.iter Journal.flush t.l_journal

let on_host t ~crash ~restart =
  if t.l_journal <> None then begin
    Net.on_crash t.l_net t.l_host (fun () ->
        crash ();
        Hashtbl.reset t.l_blacklist;
        Hashtbl.reset t.l_issued);
    Net.on_restart t.l_net t.l_host restart
  end

let recover t ~rematerialise ~on_done =
  match t.l_journal with
  | None -> on_done ()
  | Some j ->
      let engine = Net.engine t.l_net in
      let stats = Net.stats t.l_net in
      let bytes = Journal.durable_bytes j in
      let tr = Net.trace t.l_net in
      let sp = Trace.start tr "oasis.recover.e2e" in
      Trace.add_attr sp "bytes" (string_of_int bytes);
      let t0 = Engine.now engine in
      Engine.schedule engine ~delay:(Disk.scan_delay (Journal.disk j) ~bytes) (fun () ->
          let up = Net.host_up t.l_net t.l_host in
          if up then
            Trace.with_ctx tr
              (Some (Trace.ctx_of sp))
              (fun () ->
                let records = Journal.records j in
                List.iter (apply_record t) records;
                rematerialise ();
                Stats.incr stats "oasis.recover";
                Stats.observe stats "oasis.recover.records" (List.length records));
          Trace.finish tr sp;
          Stats.observe_latency stats "oasis.recover.e2e" (Engine.now engine -. t0);
          if up then on_done ())

let fp_key = Oasis_util.Siphash.key_of_string "oasis.ledger.fingerprint"

let fingerprint t =
  let b = Buffer.create 256 in
  let add_sorted xs =
    List.iter
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b '\x02')
      (List.sort String.compare xs)
  in
  add_sorted (Hashtbl.fold (fun (r, a) () acc -> (r ^ "\x01" ^ a) :: acc) t.l_blacklist []);
  Option.iter
    (fun j ->
      Buffer.add_char b '\x03';
      add_sorted
        (Hashtbl.fold
           (fun k i acc -> (k ^ if i.i_alive then "+" else "-") :: acc)
           t.l_issued []);
      Buffer.add_char b '\x03';
      Buffer.add_string b (Int64.to_string (Disk.fingerprint (Journal.disk j))))
    t.l_journal;
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
