(* Backend conformance: the three substrate capabilities (scheduling/clock,
   messaging, stable storage) behave identically behind Backend_sim and
   Backend_unix, so protocol modules compile and run against either with
   zero backend conditionals.  The same check matrix runs against both
   backends; Unix-only tests add the real wire (loopback TCP with the WAL
   framing) and real-file crash-tail semantics; a persisted model-checking
   schedule replays unchanged to pin the sim ordering across the engine
   refactor. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Disk = Oasis_store.Disk
module Backend = Oasis_backend.Backend
module Backend_sim = Oasis_backend.Backend_sim
module Backend_unix = Oasis_backend.Backend_unix
module Frame = Oasis_util.Frame
module Explore = Oasis_mc.Explore
module Scenarios = Oasis_mc.Scenarios

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Each conformance case builds a fresh backend: wall-clock backends cannot
   rewind, and a drained unix run loop exits only when no sockets are
   open — which these in-process cases guarantee. *)
type flavour = Sim | Ux

let flavour_name = function Sim -> "sim" | Ux -> "unix"

let make = function
  | Sim -> (Backend_sim.create (), None)
  | Ux ->
      let b = Backend_unix.create () in
      (Backend_unix.pack b, Some b)

(* Run until [p] holds or the deadline passes.  The sim jumps virtual
   time; the unix backend waits out the real clock, so deadlines here are
   kept short. *)
let run_until_done backend ~deadline p =
  let engine = Backend.engine backend in
  let t = ref None in
  t :=
    Some
      (Engine.every engine ~period:0.005 (fun () ->
           if p () then begin
             Option.iter Engine.cancel !t;
             Engine.stop (Backend.engine backend)
           end));
  Backend.run ~until:(Engine.now engine +. deadline) backend;
  Option.iter Engine.cancel !t;
  checkb "completed before deadline" true (p ())

let test_clock_domain fl () =
  let backend, _ = make fl in
  let label = Backend.clock_domain_label backend in
  checks "label matches flavour"
    (match fl with Sim -> "sim" | Ux -> "wall")
    label;
  checkb "real_time agrees" (fl = Ux) (Engine.real_time (Backend.engine backend))

let test_send_delivery fl () =
  let backend, _ = make fl in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  ignore b;
  let got = ref 0 in
  Net.send net ~src:a ~dst:b (fun () -> incr got);
  Net.send net ~src:a ~dst:b (fun () -> incr got);
  run_until_done backend ~deadline:2.0 (fun () -> !got = 2)

let test_call_roundtrip fl () =
  let backend, _ = make fl in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  Net.bind net b ~port:"echo" (fun req reply -> reply (Ok ("echo:" ^ req)));
  let answer = ref "" in
  Net.call net ~src:a ~dst:"b" ~port:"echo" "hi" (function
    | Ok s -> answer := s
    | Error e -> answer := "error:" ^ e);
  run_until_done backend ~deadline:2.0 (fun () -> !answer <> "");
  checks "served by the bound handler" "echo:hi" !answer

let test_call_error_paths fl () =
  let backend, _ = make fl in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and b = Net.add_host net "b" in
  (* A silent handler: the caller's timeout must answer. *)
  Net.bind net b ~port:"void" (fun _req _reply -> ());
  let timed_out = ref false and unknown = ref "" in
  Net.call net ~timeout:0.1 ~src:a ~dst:"b" ~port:"void" "x" (function
    | Error "timeout" -> timed_out := true
    | _ -> ());
  (match fl with
  | Sim ->
      (* No remote transport: a non-local destination answers explicitly. *)
      Net.call net ~timeout:0.1 ~src:a ~dst:"elsewhere" ~port:"p" "x" (function
        | Error e -> unknown := e
        | Ok _ -> ())
  | Ux ->
      (* A transport is installed but has no peer for the name: the frame
         is dropped and the timeout answers, like a dead remote. *)
      Net.call net ~timeout:0.1 ~src:a ~dst:"elsewhere" ~port:"p" "x" (function
        | Error "timeout" -> unknown := "unknown host: elsewhere"
        | _ -> ()));
  run_until_done backend ~deadline:3.0 (fun () -> !timed_out && !unknown <> "");
  checks "unreachable destination fails closed" "unknown host: elsewhere" !unknown

let test_timer_cancel fl () =
  let backend, _ = make fl in
  let engine = Backend.engine backend in
  let fired = ref 0 and cancelled_fired = ref false in
  let t = Engine.timer engine ~delay:0.02 (fun () -> cancelled_fired := true) in
  Engine.cancel t;
  ignore (Engine.timer engine ~delay:0.03 (fun () -> incr fired));
  run_until_done backend ~deadline:2.0 (fun () -> !fired = 1);
  checkb "cancelled timer never fires" false !cancelled_fired

let test_every_cancel fl () =
  let backend, _ = make fl in
  let engine = Backend.engine backend in
  let ticks = ref 0 in
  let t = ref None in
  t :=
    Some
      (Engine.every engine ~period:0.01 (fun () ->
           incr ticks;
           if !ticks = 3 then Option.iter Engine.cancel !t));
  run_until_done backend ~deadline:2.0 (fun () -> !ticks >= 3);
  (* Let any leaked period elapse, then confirm the series stopped. *)
  let engine = Backend.engine backend in
  let settled = ref false in
  ignore (Engine.timer engine ~delay:0.05 (fun () -> settled := true));
  run_until_done backend ~deadline:2.0 (fun () -> !settled);
  checki "cancelled series stops at 3" 3 !ticks

(* The Disk crash contract, same on both substrates: synced bytes survive,
   the unsynced tail does not outlive the device (the sim may keep a torn
   seeded prefix of it; the real device loses buffered bytes wholesale). *)
let test_fsync_crash_tail fl () =
  let backend, ub = make fl in
  let net = Backend.net backend in
  let h = Net.add_host net "h" in
  let disk = Backend.disk backend h in
  let synced = ref false in
  Disk.append disk ~file:"log" "durable-prefix";
  Disk.fsync disk ~file:"log" (fun () -> synced := true);
  run_until_done backend ~deadline:2.0 (fun () -> !synced);
  Disk.append disk ~file:"log" "+unsynced-tail";
  checki "tail buffered, not durable" (String.length "durable-prefix")
    (Disk.durable_size disk ~file:"log");
  let disk' =
    match (fl, ub) with
    | Ux, Some b -> Backend_unix.reopen_disk b h
    | _ ->
        Net.crash_host net h;
        Net.restart_host net h;
        disk
  in
  let contents = Disk.read disk' ~file:"log" in
  let plen = String.length "durable-prefix" in
  checkb "synced prefix survives the crash"
    true
    (String.length contents >= plen && String.sub contents 0 plen = "durable-prefix");
  checkb "lost tail is a prefix of what was appended" true
    (String.length contents <= String.length "durable-prefix+unsynced-tail");
  (match fl with
  | Ux -> checki "real device loses the whole unsynced tail" plen (String.length contents)
  | Sim -> ());
  checki "fresh device has no unsynced bytes" 0 (Disk.unsynced disk' ~file:"log")

let conformance fl =
  [
    Alcotest.test_case (flavour_name fl ^ ": clock domain") `Quick (test_clock_domain fl);
    Alcotest.test_case (flavour_name fl ^ ": send delivers") `Quick (test_send_delivery fl);
    Alcotest.test_case (flavour_name fl ^ ": call round-trips") `Quick (test_call_roundtrip fl);
    Alcotest.test_case
      (flavour_name fl ^ ": call timeout / unreachable")
      `Quick (test_call_error_paths fl);
    Alcotest.test_case (flavour_name fl ^ ": timer cancel") `Quick (test_timer_cancel fl);
    Alcotest.test_case (flavour_name fl ^ ": every cancel") `Quick (test_every_cancel fl);
    Alcotest.test_case
      (flavour_name fl ^ ": fsync crash-tail contract")
      `Quick (test_fsync_crash_tail fl);
  ]

(* --- the real wire: loopback TCP with the WAL's length+SipHash framing --- *)

let test_unix_loopback_call () =
  (* One process, one select loop — but the call crosses a real socket:
     the wire name is not a local host, so the frame goes out through the
     loopback listener and is dispatched back in via the alias, exactly
     the path a remote process takes. *)
  let b = Backend_unix.create () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend in
  let a = Net.add_host net "a" and srv = Net.add_host net "srv" in
  ignore srv;
  Net.bind net srv ~port:"sum" (fun req reply ->
      reply (Ok (string_of_int (String.length req))));
  let port = Backend_unix.listen b () in
  Backend_unix.peer b ~name:"wire.srv" ~port;
  Backend_unix.alias b ~name:"wire.srv" ~local:"srv";
  let answer = ref "" in
  Net.call net ~src:a ~dst:"wire.srv" ~port:"sum" "12345" (function
    | Ok s -> answer := s
    | Error e -> answer := "error:" ^ e);
  run_until_done backend ~deadline:5.0 (fun () -> !answer <> "");
  Backend_unix.shutdown b;
  checks "request crossed the socket and back" "5" !answer

let test_unix_wal_roundtrip () =
  let module Wal = Oasis_store.Wal in
  let b = Backend_unix.create () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend in
  let h = Net.add_host net "h" in
  let disk = Backend.disk backend h in
  let wal = Wal.create disk ~file:"wal" () in
  let records = List.init 20 (fun i -> Printf.sprintf "rec-%d" i) in
  List.iter (fun r -> Wal.append wal r) records;
  Wal.flush wal;
  let flushed = ref false in
  Wal.append wal ~on_durable:(fun () -> flushed := true) "last";
  Wal.flush wal;
  run_until_done backend ~deadline:5.0 (fun () -> !flushed);
  (* Recover through a fresh device over the same directory: the checksum
     framing must decode every synced record from the real file. *)
  let disk' = Backend_unix.reopen_disk b h in
  let wal' = Wal.create disk' ~file:"wal" () in
  Alcotest.(check (list string)) "recovered = appended" (records @ [ "last" ]) (Wal.recover wal')

(* --- the raw wire: the test plays a remote peer over a plain socket --- *)

(* A listening backend whose host "srv" answers port "sum" with the
   request's length, reachable as "wire.srv", and a raw client socket
   connected to it. *)
let raw_wire () =
  let b = Backend_unix.create () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend in
  let srv = Net.add_host net "srv" in
  Net.bind net srv ~port:"sum" (fun req reply ->
      reply (Ok (string_of_int (String.length req))));
  let port = Backend_unix.listen b () in
  Backend_unix.alias b ~name:"wire.srv" ~local:"srv";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (b, backend, fd)

(* Run the backend's loop for [dt] seconds of wall clock. *)
let pump backend dt =
  let engine = Backend.engine backend in
  Backend.run ~until:(Engine.now engine +. dt) backend

(* Pump the server and collect what it sends the client until [stop]
   holds of (bytes so far, read returned 0) or 5 s pass. *)
let read_until backend fd stop =
  let buf = Buffer.create 64 and chunk = Bytes.create 4096 in
  let closed = ref false in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while (not (stop (Buffer.contents buf) !closed)) && Unix.gettimeofday () < give_up do
    pump backend 0.005;
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> closed := true
        | n -> Buffer.add_subbytes buf chunk 0 n)
  done;
  (Buffer.contents buf, !closed)

let finish b fd =
  Unix.close fd;
  Backend_unix.shutdown b

let tcp = Frame.key "tcp"
let request = Frame.encode tcp (Frame.pack [ "Q"; "q1"; "raw"; "wire.srv"; "sum"; "12345" ])

let test_wire_byte_at_a_time () =
  let b, backend, fd = raw_wire () in
  String.iteri
    (fun i c ->
      ignore (Unix.write_substring fd (String.make 1 c) 0 1);
      (* Let the server see each partial frame on its own. *)
      if i < String.length request - 1 then pump backend 0.001)
    request;
  let decode s = Frame.decode_at tcp s ~off:0 ~limit:(String.length s) in
  let got, _ =
    read_until backend fd (fun s closed ->
        closed || match decode s with Frame.Payload _ -> true | _ -> false)
  in
  finish b fd;
  match decode got with
  | Frame.Payload (reply, _) ->
      checkb "answered with the request's length" true
        (Frame.unpack reply = Some [ "R"; "q1"; "K5" ])
  | _ -> Alcotest.failf "no reply frame (%d bytes)" (String.length got)

let test_wire_closes_on_bad_checksum () =
  let b, backend, fd = raw_wire () in
  let i = 8 + 15 in
  let bad =
    String.mapi (fun j c -> if j <> i then c else if c = '0' then '1' else '0') request
  in
  ignore (Unix.write_substring fd bad 0 (String.length bad));
  let got, closed = read_until backend fd (fun _ closed -> closed) in
  finish b fd;
  checkb "connection closed" true closed;
  checks "nothing answered" "" got

let test_wire_closes_on_oversized_length () =
  let b, backend, fd = raw_wire () in
  (* 64 MiB + 1 declared, and no payload ever sent. *)
  let header = "04000001" ^ String.make 16 '0' in
  ignore (Unix.write_substring fd header 0 (String.length header));
  let got, closed = read_until backend fd (fun _ closed -> closed) in
  finish b fd;
  checkb "connection closed" true closed;
  checks "nothing answered" "" got

(* --- sim ordering regression: the engine refactor is invisible --- *)

let test_sim_schedule_replays_unchanged () =
  let path =
    if Sys.file_exists "schedules" then "schedules/golf_club_ack_durable.json"
    else "test/schedules/golf_club_ack_durable.json"
  in
  match Explore.load_schedule path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok sf -> (
      match Scenarios.find sf.Explore.sf_scenario with
      | None -> Alcotest.failf "unknown scenario %s" sf.Explore.sf_scenario
      | Some spec ->
          let r = Explore.replay spec sf in
          checki "persisted schedule still replays clean" 0 (List.length r.Explore.r_violations))

let () =
  Alcotest.run "backend"
    [
      ("conformance-sim", conformance Sim);
      ("conformance-unix", conformance Ux);
      ( "unix-wire",
        [
          Alcotest.test_case "loopback socket call" `Quick test_unix_loopback_call;
          Alcotest.test_case "WAL round-trips on a real disk" `Quick test_unix_wal_roundtrip;
          Alcotest.test_case "a frame sent byte by byte is answered" `Quick
            test_wire_byte_at_a_time;
          Alcotest.test_case "a bad checksum closes the connection" `Quick
            test_wire_closes_on_bad_checksum;
          Alcotest.test_case "a length over 64 MiB closes the connection" `Quick
            test_wire_closes_on_oversized_length;
        ] );
      ( "sim-ordering",
        [
          Alcotest.test_case "persisted MC schedule replays unchanged" `Quick
            test_sim_schedule_replays_unchanged;
        ] );
    ]
