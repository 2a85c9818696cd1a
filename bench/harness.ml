(* The experiments' shared harness: the simulated world, size variables
   read from the environment, awaiting one reply, the Login population
   most experiments rest on, the staggered revocation-burst probe, and
   the BENCH_*.json snapshot writer.  Each experiment in main.ml then
   contains only its measurement. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Service = Oasis_core.Service
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Baseline = Oasis_core.Baseline
module FL = Oasis_core.Federation_lint
module Event = Oasis_events.Event
module Broker = Oasis_events.Broker
module Broker_io = Oasis_events.Broker_io
module Bead = Oasis_events.Bead
module Composite = Oasis_events.Composite
module Local_io = Oasis_events.Local_io
module Globalview = Oasis_events.Globalview
module Custode = Oasis_mssa.Custode
module Vac = Oasis_mssa.Vac
module Bypass = Oasis_mssa.Bypass
module Site = Oasis_badge.Site
module Workload = Oasis_badge.Workload
module Disk = Oasis_store.Disk
module Wal = Oasis_store.Wal
module Journal = Oasis_store.Journal
module J = Oasis_util.Json
module V = Oasis_rdl.Value

let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* [sizes var ~default] is the comma-separated integer list in the
   environment variable [var], or [default] when it is unset; [size] reads
   a single integer.  A malformed or empty value fails naming [var]: a typo
   must not silently shrink an experiment to nothing. *)
let parse_ints var ~expect ~default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s ->
      List.map
        (fun x ->
          match int_of_string_opt (String.trim x) with
          | Some n -> n
          | None -> failwith (Printf.sprintf "%s=%S: expected %s" var s expect))
        (String.split_on_char ',' s)

let sizes var ~default = parse_ints var ~expect:"comma-separated integers" ~default

let size var ~default =
  match parse_ints var ~expect:"an integer" ~default:[ default ] with
  | [ n ] -> n
  | _ -> failwith (Printf.sprintf "%s=%S: expected an integer" var (Sys.getenv var))

(* ------------------------------------------------------------------ *)
(* The simulated world                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_vci =
  let host = Principal.Host.create "benchclient" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  client_host : Net.host;
  mutable nhosts : int;
}

let make_world ?(latency = Net.Fixed 0.005) () =
  let engine = Engine.create () in
  let net = Net.create ~latency engine in
  let client_host = Net.add_host net "client" in
  { engine; net; reg = Service.create_registry (); client_host; nhosts = 0 }

let add_host w =
  w.nhosts <- w.nhosts + 1;
  Net.add_host w.net (Printf.sprintf "bh%d" w.nhosts)

let service ?batch w ~name ~rolefile =
  ok ("service " ^ name)
    (Service.create w.net (add_host w) w.reg ~name ~rolefile ?batch_notifications:batch ())

let run_for w dt = Engine.run ~until:(Engine.now w.engine +. dt) w.engine

(* Start a request, run the world for [dt] and return its reply, failing
   with [what] if it was refused or never came. *)
let await w dt what start =
  let r = ref None in
  start (fun x -> r := Some x);
  run_for w dt;
  match !r with Some x -> ok what x | None -> failwith (what ^ ": no reply")

(* ------------------------------------------------------------------ *)
(* The Login population                                                *)
(* ------------------------------------------------------------------ *)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

let logged_on login ~client u h =
  Service.issue_arbitrary login ~client ~roles:[ "LoggedOn" ] ~args:[ V.Str u; V.Str h ]

type population = {
  login : Service.t;
  users : string array;  (** u0 .. u(n-1) *)
  clients : Principal.vci array;
  certs : Cert.rmc array;  (** users.(i) LoggedOn at "ely", held by clients.(i) *)
}

let login_population ~batch w n =
  let login = service ~batch w ~name:"Login" ~rolefile:login_rolefile in
  let users = Array.init n (Printf.sprintf "u%d") in
  let clients = Array.map (fun _ -> fresh_vci ()) users in
  let certs = Array.mapi (fun i u -> logged_on login ~client:clients.(i) u "ely") users in
  { login; users; clients; certs }

(* ------------------------------------------------------------------ *)
(* The revocation-burst probe                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of an ascending array (0 when empty). *)
let pct sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | len ->
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int len)) in
      sorted.(max 0 (min (len - 1) (rank - 1)))

type burst = { burst : int; samples : int; p50 : float; p99 : float; max : float }

(* Revoke the population's first min(n, 500) Login certificates with
   tracing on, staggered across many heartbeat periods so their arrival
   phase relative to the coalescing tick varies: each flush window yields
   one end-to-end sample, and the samples trace out the full 0..heartbeat
   coalescing-delay distribution, not one point.  A window's trace is
   rooted at its earliest [revoke.invalidate] and closed by the peer's
   [revoke.apply].  Only the burst is traced: entry-phase spans would
   otherwise age the ring buffer out from under the measurement.  Gates:
   samples exist, every span closed, coalescing bounds propagation by two
   heartbeats, and the histogram saw one sample per window. *)
let revocation_burst w ~exp ~heartbeat pop =
  let fail fmt = Printf.ksprintf (fun m -> failwith (exp ^ ": " ^ m)) fmt in
  let tr = Net.trace w.net in
  Trace.set_enabled tr true;
  Trace.clear tr;
  Stats.reset (Net.stats w.net);
  let burst = min (Array.length pop.certs) 500 in
  let gap = 0.2 in
  for i = 0 to burst - 1 do
    Engine.schedule w.engine
      ~delay:(float_of_int i *. gap)
      (fun () -> Service.revoke_certificate pop.login pop.certs.(i))
  done;
  run_for w ((float_of_int burst *. gap) +. 10.0);
  Trace.set_enabled tr false;
  let spans = Trace.spans tr in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if Trace.span_parent sp = None && Trace.span_name sp = "revoke.invalidate" then
        Hashtbl.replace roots (Trace.span_trace sp) (Trace.span_start sp))
    spans;
  let e2e =
    List.filter_map
      (fun sp ->
        if Trace.span_name sp = "revoke.apply" then
          Option.map
            (fun root_start -> Trace.span_end sp -. root_start)
            (Hashtbl.find_opt roots (Trace.span_trace sp))
        else None)
      spans
    |> List.sort compare |> Array.of_list
  in
  let samples = Array.length e2e in
  if samples = 0 then fail "no end-to-end revocation spans recorded";
  if Trace.open_spans tr <> [] then fail "revocation spans left open after settling";
  let mx = pct e2e 100.0 in
  if mx > 2.0 *. heartbeat then fail "propagation latency %.3fs exceeds 2 heartbeats" mx;
  if Stats.latency_samples (Net.stats w.net) "oasis.revoke.e2e" <> samples then
    fail "span-derived and histogram sample counts disagree";
  { burst; samples; p50 = pct e2e 50.0; p99 = pct e2e 99.0; max = mx }

let burst_json b =
  J.Obj
    [
      ("samples", J.Int b.samples);
      ("p50", J.Float b.p50);
      ("p99", J.Float b.p99);
      ("max", J.Float b.max);
    ]

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Stats and Trace pre-render their own JSON; snapshots parse it back so
   the writer re-emits it with sorted keys, and the snapshot's bytes do
   not depend on hash-iteration order. *)
let embed what s = ok (what ^ " json") (J.parse s)

let sim_labels = ("sim", "sim")

(* Write BENCH_<exp>_<key>.json: [fields] plus the experiment name and the
   (backend, clock domain) [labels], keys sorted; then say so under the
   experiment's table. *)
let write_snapshot (backend, clock) exp key fields =
  let file = Printf.sprintf "BENCH_%s_%d.json" exp key in
  let oc = open_out file in
  output_string oc
    (J.to_string
       (J.sorted
          (J.Obj
             (("experiment", J.Str exp)
             :: ("backend", J.Str backend)
             :: ("clock_domain", J.Str clock)
             :: fields))));
  output_string oc "\n";
  close_out oc;
  row "         snapshot written to %s\n" file
