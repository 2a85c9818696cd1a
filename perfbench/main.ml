(* perfbench — the OASIS plane benchmark.

   Four workloads drive the real protocol modules through their public
   functions only (Shard, Service, Remote, the sim and Unix backends):

   - issue-grow (sim): 2 durable shards behind the router and a batched
     Login service.  A stream of fresh role entries grows each shard's live
     mirror far above snapshot_every; the round ends with a crash and
     restart of one shard.  The write path.
   - validate-mix (sim): the same deployment over a preloaded population 4x
     the signature-cache cap.  Skewed validations plus a few entries and
     exits.  The read path.
   - revoke-churn (sim): Login plus the sharded service with a two-level
     membership-rule graph.  Login revocations cascade across services and
     shards; re-login plus re-entry keeps the population steady; a Chair
     fires some Voter instances.  The revocation path.
   - wire-mix (Unix backend): router plus 2 shards in one process, every
     hop over loopback TCP, every ack on a real fsync.  The wire path.

   Usage (perfbench/run.py builds this and passes its arguments on):
     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   A run repeats fixed-size rounds of its workload until [--seconds] have
   passed (at least [min_rounds]), then prints human-readable lines and,
   as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   With [--trace 0] the metrics are the end-to-end set, measured with the
   program's tracer off; ops_per_s is the lower quartile of the
   throughputs of short slices of every round's mix, and the p50 latencies
   the highest round's, the steadiest figures on a machine whose speed
   drifts (perfbench/metrics.json, "estimators").  With [--trace 1]
   they are the per-layer set from a traced round plus the layer ladder
   (see [traced_layers]).  The exit code is 1 when any output audit
   failed. *)

module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Disk = Oasis_store.Disk
module Service = Oasis_core.Service
module Shard = Oasis_core.Shard
module Remote = Oasis_core.Remote
module Cert = Oasis_core.Cert
module Credrec = Oasis_core.Credrec
module Principal = Oasis_core.Principal
module Backend = Oasis_backend.Backend
module Backend_unix = Oasis_backend.Backend_unix
module Prng = Oasis_util.Prng
module J = Oasis_util.Json
module V = Oasis_rdl.Value

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

type sizes = {
  grow_entries : int;  (* issue-grow: fresh entries per round *)
  grow_rate : float;  (* entries per virtual second *)
  vm_preload : int;  (* validate-mix: starting population *)
  vm_ops : int;  (* validate-mix: operations per round *)
  vm_rate : float;
  rc_users : int;  (* revoke-churn: steady population *)
  rc_ops : int;
  rc_rate : float;
  wm_preload : int;  (* wire-mix: users entered during set-up *)
  wm_sessions : int;  (* wire-mix: user sessions per round *)
}

let full =
  {
    grow_entries = 30_000;
    grow_rate = 1000.0;
    vm_preload = 4096;
    vm_ops = 60_000;
    vm_rate = 3000.0;
    rc_users = 1500;
    rc_ops = 10_000;
    rc_rate = 30.0;
    wm_preload = 500;
    wm_sessions = 2000;
  }

(* The self-test's sizes: same shapes, a fraction of the work. *)
let small =
  {
    grow_entries = 2000;
    grow_rate = 1000.0;
    vm_preload = 1500;
    vm_ops = 4000;
    vm_rate = 3000.0;
    rc_users = 200;
    rc_ops = 800;
    rc_rate = 30.0;
    wm_preload = 20;
    wm_sessions = 60;
  }

let min_rounds = 3
let max_rounds = 50

(* Operation shares of the mixes. *)
let vm_enter = 0.04
let vm_exit = 0.04
let vm_hot_share = 0.8 (* 80% of validations ... *)
let vm_hot_frac = 0.2 (* ... go to the oldest 20% of the population *)
let rc_revoke = 0.30
let rc_fire = 0.03
let rc_settle = 4.0 (* virtual seconds: two cascade levels, one heartbeat each *)
let wm_validates = 4 (* validations of each fresh membership *)

(* Throughput is sampled in slices of about 0.2-0.3 CPU or wall seconds
   each, so a run's many slices see every speed the machine passes
   through (see [e2e_run]).  issue-grow's cost per entry grows with the
   mirror through the round, so its whole mix is one slice. *)
let vm_slice = 4.0 (* virtual seconds *)
let rc_slice = 50.0 (* virtual seconds *)
let wm_slice = 0.25 (* wall seconds *)

(* One request outstanding over the wire-mix client.  With a window of 2
   or 8, a checkpoint stall delayed every request in the window, and the
   wall-clock latencies spread 11-44% across runs on a shared 2-vCPU VM;
   with 1 the p50s spread about 4%. *)
let wm_window = 1
let wm_fire = 0.1

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let cpu () = Sys.time ()
let wall () = Unix.gettimeofday ()

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort Float.compare b;
    b
end

(* Nearest-rank percentile of a sorted array; nan when empty. *)
let pct sorted p =
  match Array.length sorted with
  | 0 -> Float.nan
  | n ->
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> Float.nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0 then Float.nan else float_of_int num /. float_of_int den
let per num ops = if ops = 0 then Float.nan else num /. float_of_int ops

(* Output audit: every check is one attempted operation; a failed check or
   a request that never got its reply is one failure. *)
type audit = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let audit () = { attempted = 0; failed = 0; notes = [] }

let fail a what =
  a.failed <- a.failed + 1;
  if List.length a.notes < 5 then a.notes <- what :: a.notes

(* A verdict on an operation already counted as attempted. *)
let judge a ok what = if not ok then fail a what

(* A check that is an attempted operation of its own. *)
let check a ok what =
  a.attempted <- a.attempted + 1;
  judge a ok what

(* One metric as printed: name, value, unit. *)
type metric = string * float * string

(* One round of a workload. *)
type round = {
  setup_s : float;
  busy : float;  (* seconds of the workload's clock spent in the mix *)
  ops : int;  (* completed client operations of the mix *)
  rates : float array;  (* ops per second of the mix's slices, sorted *)
  issue : float array;  (* sorted latencies, seconds *)
  validate : float array;
  audit : audit;
  extras : metric list;  (* workload-specific end-to-end metrics *)
  det : string;  (* the mix's counts and virtual-time metrics; equal for equal seeds *)
  audit_det : string;  (* the same for the audit phase, when it differs per round *)
  layers : metric list;  (* traced rounds only *)
}

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans (traced runs)                             *)
(* ------------------------------------------------------------------ *)

(* Spans the benchmark records around its own calls into each layer, on a
   CPU clock.  Disabled unless the run is traced; [span] then costs one
   branch. *)
let bench_trace = Trace.create ~capacity:4096 Sys.time

let span name f = Trace.with_span bench_trace name f

(* Total CPU seconds of the finished bench spans with this name. *)
let span_cpu name =
  List.fold_left
    (fun acc sp -> if Trace.span_name sp = name then acc +. Trace.duration sp else acc)
    0.0 (Trace.spans bench_trace)

(* ------------------------------------------------------------------ *)
(* Stats and GC snapshots                                              *)
(* ------------------------------------------------------------------ *)

type snap = { s_stats : (string, int * int) Hashtbl.t; s_gc : Gc.stat; s_edges : int }

let snapshot net tables =
  let h = Hashtbl.create 64 in
  List.iter
    (fun r -> Hashtbl.replace h r.Stats.r_cat (r.Stats.r_count, r.Stats.r_bytes))
    (Stats.report (Net.stats net));
  {
    s_stats = h;
    s_gc = Gc.quick_stat ();
    s_edges = List.fold_left (fun n t -> n + Credrec.edge_ops t) 0 tables;
  }

let get s cat = Option.value ~default:(0, 0) (Hashtbl.find_opt s.s_stats cat)
let dcount a b cat = fst (get b cat) - fst (get a cat)
let dbytes a b cat = snd (get b cat) - snd (get a cat)

(* Message categories are the ones Net.send accounts: everything except
   the store, cache, gauge and fault counters, and the retry/fault
   suffixes that count events rather than messages. *)
let is_message cat =
  not
    (List.exists (fun prefix -> String.starts_with ~prefix cat)
       [ "store."; "oasis.sigcache"; "oasis.residual"; "oasis.recover"; "oasis.revoke";
         "oasis.mods"; "oasis.peer"; "fault."; "repl.repair"; "repl.promote";
         "evt.resend.gone" ]
    || List.exists (fun suffix -> String.ends_with ~suffix cat)
         [ ".attempt"; ".giveup"; ".timeout"; ".late_reply"; ".dead"; ".lost";
           ".partitioned" ])

let sum_cats a b pred f =
  Hashtbl.fold (fun cat _ acc -> if pred cat then acc + f a b cat else acc) b.s_stats 0

(* The layer metrics every workload measures, from Stats/GC/credrec deltas
   over its mix. *)
let common_layers ~net ~tables ~ops a b : metric list =
  let c = dcount a b and by = dbytes a b in
  let routed =
    List.fold_left (fun n cat -> n + c cat) 0
      [ "shard.entry"; "shard.rbr"; "shard.validate"; "shard.exit"; "oasis.router.forward" ]
  in
  let st = Net.stats net in
  let gcd f = f b.s_gc -. f a.s_gc in
  [
    ("shard.router_fwd_per_op", ratio routed ops, "count");
    ("service.residual_hit_ratio",
     ratio (c "oasis.residual.hit") (c "oasis.residual.hit" + c "oasis.residual.miss"), "ratio");
    ("service.sigcache_hit_ratio",
     ratio (c "oasis.sigcache.hit") (c "oasis.sigcache.hit" + c "oasis.sigcache.miss"), "ratio");
    ("credrec.edge_ops_per_op", ratio (b.s_edges - a.s_edges) ops, "count");
    ("credrec.live_records",
     float_of_int (List.fold_left (fun n t -> n + Credrec.live_records t) 0 tables), "count");
    ("store.wal_bytes_per_op", ratio (by "store.wal.append") ops, "B");
    ("store.fsyncs_per_op", ratio (c "store.fsync") ops, "count");
    ("store.fsync_batch_mean", ratio (by "store.fsync.batch") (c "store.fsync.batch"), "count");
    ("store.fsync_p50_ms", 1000.0 *. Stats.percentile st "store.fsync" 50.0, "ms");
    ("store.fsync_p99_ms", 1000.0 *. Stats.percentile st "store.fsync" 99.0, "ms");
    ("store.snapshot_bytes_per_op", ratio (by "store.snapshot") ops, "B");
    ("store.snapshots_per_kop", 1000.0 *. ratio (c "store.snapshot") ops, "count");
    ("net.msgs_per_op", ratio (sum_cats a b is_message dcount) ops, "count");
    ("net.bytes_per_op", ratio (sum_cats a b is_message dbytes) ops, "B");
    ("gc.minor_words_per_op", per (gcd (fun g -> g.Gc.minor_words)) ops, "words");
    ("gc.promoted_words_per_op", per (gcd (fun g -> g.Gc.promoted_words)) ops, "words");
    ("gc.major_collections_per_kop",
     1000.0 *. ratio (b.s_gc.Gc.major_collections - a.s_gc.Gc.major_collections) ops, "count");
  ]

(* The revocation path's broker and end-to-end figures (revoke-churn). *)
let revoke_layers ~revokes a b : metric list =
  let c = dcount a b in
  [
    ("broker.flushes_per_revoke", ratio (c "oasis.mods.flush") revokes, "count");
    ("broker.flush_batch_mean", ratio (dbytes a b "oasis.mods.flush") (c "oasis.mods.flush"), "count");
    ("broker.evt_msgs_per_revoke",
     ratio
       (sum_cats a b (fun cat -> String.starts_with ~prefix:"evt." cat && is_message cat) dcount)
       revokes,
     "count");
  ]

(* ------------------------------------------------------------------ *)
(* Program tracer harvest: revoke.invalidate -> revoke.apply            *)
(* ------------------------------------------------------------------ *)

(* The program's tracer keeps 4096 finished spans.  A long traced round
   would overflow it, so the harvest drains it on a virtual-time tick,
   only when no span is open (clearing drops open spans), and carries the
   roots it has seen across drains.  End-to-end revocation latency is the
   distance from a trace's root [revoke.invalidate] to each [revoke.apply]
   in it, as in bench e16. *)
type harvest = { roots : (int, float) Hashtbl.t; e2e : Samples.t; mutable dropped : int }

let harvest_new () = { roots = Hashtbl.create 1024; e2e = Samples.create (); dropped = 0 }

let drain tr h =
  if Trace.open_spans tr = [] then begin
    h.dropped <- h.dropped + Trace.dropped tr;
    let spans = Trace.spans tr in
    List.iter
      (fun sp ->
        if Trace.span_parent sp = None && Trace.span_name sp = "revoke.invalidate" then
          Hashtbl.replace h.roots (Trace.span_trace sp) (Trace.span_start sp))
      spans;
    List.iter
      (fun sp ->
        if Trace.span_name sp = "revoke.apply" then
          match Hashtbl.find_opt h.roots (Trace.span_trace sp) with
          | Some t0 -> Samples.add h.e2e (Trace.span_end sp -. t0)
          | None -> ())
      spans;
    Trace.clear tr
  end

(* ------------------------------------------------------------------ *)
(* Simulated world                                                     *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  net : Net.t;
  reg : Service.registry;
  client : Net.host;
  phost : Principal.Host.t;
  pdom : Principal.Host.domain;
  rng : Prng.t;  (* the workload's own stream: arrivals and op choices *)
}

let make_world seed =
  let engine = Engine.create () in
  let net = Net.create ~seed:(Int64.of_int seed) ~latency:(Net.Uniform (0.001, 0.009)) engine in
  let phost = Principal.Host.create "perfbench" in
  {
    engine;
    net;
    reg = Service.create_registry ();
    client = Net.add_host net "h.client";
    phost;
    pdom = Principal.Host.boot_domain phost;
    rng = Prng.create (Int64.of_int ((seed * 1_000_003) + 17));
  }

let now w = Engine.now w.engine
let run_for w dt = Engine.run ~until:(now w +. dt) w.engine
let new_vci w = Principal.Host.new_vci w.phost w.pdom

(* Advance virtual time until [cond] holds or [budget] virtual seconds
   pass, calling [step] after each quarter of a virtual second. *)
let run_until w ?(budget = 600.0) ?(step = ignore) cond =
  let deadline = now w +. budget in
  while (not (cond ())) && now w < deadline do
    run_for w 0.25;
    step ()
  done;
  cond ()

(* Open loop at a fixed mean virtual rate: each arrival schedules the next
   one, so the queue never holds the whole stream. *)
let open_loop w ~rate ~count f =
  let rec arrive i =
    if i < count then begin
      f i;
      Engine.schedule w.engine ~delay:(Prng.exponential w.rng ~mean:(1.0 /. rate)) (fun () ->
          arrive (i + 1))
    end
  in
  Engine.schedule w.engine ~delay:0.0 (fun () -> arrive 0)

let ok_or what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

(* The membership rule keeps the login's site in [sites]: entry compiles
   that residual, so the residual cache is on the entry path. *)
let member_rolefile = {|
Member(u) <- Login.LoggedOn(u, h)* : (h in sites)*
|}

(* Voter needs Member, which needs a login: a login revocation cascades
   Login -> Member's shard -> Voter's shard. *)
let churn_rolefile = {|
Chair <- Login.LoggedOn("chair", h)
Member(u) <- Login.LoggedOn(u, h)* : (h in sites)*
Voter(u) <- Member(u)* |>* Chair
|}

let sites = List.init 8 (Printf.sprintf "site%d")

let deploy ?(rolefile = member_rolefile) w =
  let login =
    ok_or "Login"
      (Service.create w.net (Net.add_host w.net "h.Login") w.reg ~name:"Login"
         ~rolefile:login_rolefile ~batch_notifications:true ())
  in
  let club =
    ok_or "Club"
      (Shard.create w.net w.reg ~name:"Club" ~rolefile ~shards:2 ~durable:true
         ~groups:[ ("sites", sites) ] ())
  in
  (login, club)

let tables login club =
  Service.table login :: Array.to_list (Array.map Service.table (Shard.shards club))

let user_name seed i = Printf.sprintf "u%d-%d" seed i

(* Users log in from one of [sites], by a hash of their name. *)
let login_cert login ~client u =
  let site = List.nth sites (Hashtbl.hash u mod List.length sites) in
  Service.issue_arbitrary login ~client ~roles:[ "LoggedOn" ] ~args:[ V.Str u; V.Str site ]

let issuer club (cert : Cert.rmc) =
  let shards = Shard.shards club in
  let rec go i =
    if i = Array.length shards then None
    else if Service.name shards.(i) = cert.Cert.service then Some shards.(i)
    else go (i + 1)
  in
  go 0

(* Routed validation with its latency recorded; [expect_ok] decides which
   verdict is the correct one. *)
let validate_routed w club lat a ~client ~expect_ok ~what cert k =
  let t0 = now w in
  Shard.validate club ~client_host:w.client ~client cert (fun r ->
      Samples.add lat (now w -. t0);
      (match r with
      | Ok () -> judge a expect_ok (what ^ ": accepted, expected a refusal")
      | Error e -> judge a (not expect_ok) (what ^ ": refused: " ^ e));
      k r)

(* Mix bookkeeping shared by the sim workloads. *)
type mix = {
  a : audit;
  issue_lat : Samples.t;
  validate_lat : Samples.t;
  rates : Samples.t;  (* completed operations per second, one per slice *)
  mutable sent : int;
  mutable done_ : int;
}

let mix_new () =
  {
    a = audit ();
    issue_lat = Samples.create ();
    validate_lat = Samples.create ();
    rates = Samples.create ();
    sent = 0;
    done_ = 0;
  }

let sent m = m.sent <- m.sent + 1
let landed m = m.done_ <- m.done_ + 1

(* Throughput slices: [cut] records the operations completed since the
   last cut over the [clock] seconds they took.  [tick] cuts once [span]
   has passed on [elapsed]'s scale; [close] cuts the closing part of the
   mix unless it is shorter than half a slice and an earlier slice exists. *)
let slicer ~clock ~elapsed ~span ~count (rates : Samples.t) =
  let t = ref (elapsed ()) and c = ref (clock ()) and d = ref (count ()) in
  let cut () =
    let c' = clock () and d' = count () in
    Samples.add rates (float_of_int (d' - !d) /. (c' -. !c));
    t := elapsed ();
    c := c';
    d := d'
  in
  let tick () = if elapsed () -. !t >= span then cut () in
  let close () = if elapsed () -. !t >= span /. 2.0 || rates.Samples.n = 0 then cut () in
  (tick, close)

(* A sim mix cut every [span] virtual seconds, timed on process CPU. *)
let sim_slicer w m ~span =
  slicer ~clock:cpu ~elapsed:(fun () -> now w) ~span ~count:(fun () -> m.done_) m.rates

(* Traced-round instrumentation: program tracer on, periodic drain, Stats
   and GC snapshots around the mix. *)
type probe = { p_harvest : harvest; p_tick : Engine.timer }

let probe_start w =
  let h = harvest_new () in
  let tr = Net.trace w.net in
  Trace.clear tr;
  Trace.set_enabled tr true;
  { p_harvest = h; p_tick = Engine.every w.engine ~period:0.25 (fun () -> drain tr h) }

let probe_stop w p =
  Engine.cancel p.p_tick;
  let tr = Net.trace w.net in
  drain tr p.p_harvest;
  Trace.set_enabled tr false;
  p.p_harvest

let revoke_e2e (h : harvest) : metric list =
  let s = Samples.sorted h.e2e in
  [
    ("revoke_p50_s", pct s 50.0, "s");
    ("revoke_p99_s", pct s 99.0, "s");
    ("revoke.samples", float_of_int (Array.length s), "count");
    ("trace.dropped", float_of_int h.dropped, "count");
  ]

(* Direct, local layer timings on the traced round's own world.  [picks]:
   (issuing service, holder, certificate) in the workload's popularity. *)
let direct_validate_us picks =
  let n = Array.length picks in
  if n = 0 then Float.nan
  else begin
    let t0 = cpu () in
    span "direct.validate" (fun () ->
        Array.iter (fun (svc, client, cert) -> ignore (Service.validate svc ~client cert)) picks);
    1e6 *. (cpu () -. t0) /. float_of_int n
  end

(* [clients.(i)] receives the i-th certificate of [roles] outside policy;
   then each is revoked directly at its issuer. *)
let direct_issue_revoke_us svc ~roles ~args_of clients =
  let n = Array.length clients in
  let t0 = cpu () in
  let certs =
    span "direct.issue_arbitrary" (fun () ->
        Array.mapi (fun i client -> Service.issue_arbitrary svc ~client ~roles ~args:(args_of i)) clients)
  in
  let t1 = cpu () in
  span "direct.revoke" (fun () -> Array.iter (Service.revoke_certificate svc) certs);
  let t2 = cpu () in
  [
    ("service.issue_arbitrary_us", 1e6 *. (t1 -. t0) /. float_of_int n, "us");
    ("service.revoke_us", 1e6 *. (t2 -. t1) /. float_of_int n, "us");
  ]

let direct_count = 5000

let direct_login_us w login =
  direct_issue_revoke_us login ~roles:[ "LoggedOn" ]
    ~args_of:(fun i -> [ V.Str (Printf.sprintf "direct%d" i); V.Str "ely" ])
    (Array.init direct_count (fun _ -> new_vci w))

(* ------------------------------------------------------------------ *)
(* issue-grow                                                          *)
(* ------------------------------------------------------------------ *)

(* Crash and restart shard 0; recovery is driven by hand so its completion
   hook is observable.  Service is back when a routed validation of one of
   its memberships is accepted again.  Then every acked membership must
   validate, and the shard's durable_issued must equal its pre-crash
   value.  Returns the extras, the recovery CPU and the deterministic
   summary. *)
let crash_and_sweep w club m (acked : Cert.rmc array) =
  run_for w 0.5;
  let svc0 = Shard.shard club 0 in
  let pre = Service.durable_issued svc0 in
  let probe_cert = Array.find_opt (fun (c : Cert.rmc) -> c.Cert.service = Service.name svc0) acked in
  Service.set_auto_recover svc0 false;
  let host0 = Service.host svc0 in
  Net.crash_host w.net host0;
  run_for w 0.5;
  Net.restart_host w.net host0;
  let t_restart = now w in
  let replayed = ref Float.nan and answered = ref Float.nan and recover_cpu = ref Float.nan in
  let c_rec = cpu () in
  Service.recover svc0 ~on_done:(fun () -> replayed := now w);
  (match probe_cert with
  | None -> fail m.a "no membership landed on shard 0"
  | Some pc ->
      let rec poll () =
        Shard.validate club ~client_host:w.client ~client:pc.Cert.holder pc (function
          | Ok () when not (Float.is_nan !replayed) ->
              answered := now w;
              recover_cpu := cpu () -. c_rec
          | _ -> Engine.schedule w.engine ~delay:0.005 poll)
      in
      poll ();
      if not (run_until w ~budget:60.0 (fun () -> not (Float.is_nan !answered))) then
        fail m.a "recovered shard never answered a validation");
  let recover_s = !answered -. t_restart in
  run_for w 3.0;
  let post = Service.durable_issued svc0 in
  check m.a (post = pre) (Printf.sprintf "durable_issued %d after recovery, %d before" post pre);
  let answered_audit = ref 0 in
  m.a.attempted <- m.a.attempted + Array.length acked;
  open_loop w ~rate:5000.0 ~count:(Array.length acked) (fun i ->
      let c = acked.(i) in
      validate_routed w club m.validate_lat m.a ~client:c.Cert.holder ~expect_ok:true
        ~what:"acked membership after recovery" c (fun _ -> incr answered_audit));
  if not (run_until w (fun () -> !answered_audit = Array.length acked)) then
    fail m.a "validations after recovery never answered";
  ( [ ("recover_s", recover_s, "s"); ("recover_replay_s", !replayed -. t_restart, "s") ],
    !recover_cpu,
    Printf.sprintf "pre=%d post=%d recover=%h" pre post recover_s )

let issue_grow sz ~seed ~traced ~full_audit =
  let t_setup = wall () in
  let w = make_world seed in
  let login, club = deploy w in
  let n = sz.grow_entries in
  let users =
    Array.init n (fun i ->
        let u = user_name seed i and client = new_vci w in
        (u, client, login_cert login ~client u))
  in
  let setup_s = wall () -. t_setup in
  let m = mix_new () in
  let certs = Array.make n None in
  let pr = if traced then Some (probe_start w) else None in
  let s0 = snapshot w.net (tables login club) in
  let c0 = cpu () in
  span "round.mix" (fun () ->
      open_loop w ~rate:sz.grow_rate ~count:n (fun i ->
          let u, client, lc = users.(i) in
          let t0 = now w in
          sent m;
          Shard.request_entry club ~client_host:w.client ~client ~role:"Member" ~args:[ V.Str u ]
            ~creds:[ lc ] (fun r ->
              landed m;
              match r with
              | Ok c ->
                  Samples.add m.issue_lat (now w -. t0);
                  certs.(i) <- Some c
              | Error e -> fail m.a ("entry " ^ u ^ ": " ^ e)));
      let _, close = sim_slicer w m ~span:Float.infinity in
      ignore (run_until w (fun () -> m.done_ = n));
      close ());
  let busy = cpu () -. c0 in
  let s1 = snapshot w.net (tables login club) in
  let harvest = Option.map (probe_stop w) pr in
  m.a.attempted <- m.a.attempted + n;
  if m.done_ < n then fail m.a (Printf.sprintf "%d entries never answered" (n - m.done_));
  let acked = Array.of_seq (Seq.filter_map (fun c -> c) (Array.to_seq certs)) in
  (* Crash and restart shard 0, then validate every acked membership; one
     round of a run does this (recovery costs about as much as the mix). *)
  let recovery = if full_audit then Some (crash_and_sweep w club m acked) else None in
  let layers =
    match harvest with
    | None -> []
    | Some h ->
        let picks =
          Array.init (min direct_count (Array.length acked)) (fun _ ->
              let c = acked.(Prng.int w.rng (Array.length acked)) in
              (Option.get (issuer club c), c.Cert.holder, c))
        in
        common_layers ~net:w.net ~tables:(tables login club) ~ops:n s0 s1
        @ [
            ("service.validate_us", direct_validate_us picks, "us");
            ("trace.dropped", float_of_int h.dropped, "count");
          ]
        @ (match recovery with
          | Some (_, recover_cpu, _) ->
              [
                ( "store.recover_records",
                  float_of_int (Stats.bytes (Net.stats w.net) "oasis.recover.records"),
                  "count" );
                ("store.recover_cpu_ms", 1000.0 *. recover_cpu, "ms");
              ]
          | None -> [])
        @ direct_login_us w login
  in
  let issue = Samples.sorted m.issue_lat and validate = Samples.sorted m.validate_lat in
  {
    setup_s;
    busy;
    ops = n;
    rates = Samples.sorted m.rates;
    issue;
    validate;
    audit = m.a;
    extras = (match recovery with Some (extras, _, _) -> extras | None -> []);
    det =
      Printf.sprintf "n=%d acked=%d issue=%h/%h" n (Array.length acked) (pct issue 50.0)
        (pct issue 99.0);
    audit_det =
      (match recovery with
      | Some (_, _, d) -> Printf.sprintf "%s validate=%h/%h" d (pct validate 50.0) (pct validate 99.0)
      | None -> "");
    layers;
  }

(* ------------------------------------------------------------------ *)
(* validate-mix                                                        *)
(* ------------------------------------------------------------------ *)

type vstate = Live | Exiting | Exited

(* [v_inflight]: probes sent and not yet answered.  An exit waits for
   them, so every probe's expected verdict is the state it was sent in. *)
type vmember = {
  v_client : Principal.vci;
  v_cert : Cert.rmc;
  mutable v_st : vstate;
  mutable v_inflight : int;
}

let validate_mix sz ~seed ~traced =
  let t_setup = wall () in
  let w = make_world seed in
  let login, club = deploy w in
  let pop = ref [||] and npop = ref 0 in
  let push v =
    if !npop = Array.length !pop then begin
      let b = Array.make (max 1024 (2 * !npop)) v in
      Array.blit !pop 0 b 0 !npop;
      pop := b
    end;
    !pop.(!npop) <- v;
    incr npop
  in
  let fresh = ref 0 in
  (* Enter a fresh user; [k] gets whether it landed. *)
  let enter ~lat m k =
    let u = user_name seed !fresh in
    incr fresh;
    let client = new_vci w in
    let lc = login_cert login ~client u in
    let t0 = now w in
    Shard.request_entry club ~client_host:w.client ~client ~role:"Member" ~args:[ V.Str u ]
      ~creds:[ lc ] (fun r ->
        match r with
        | Ok c ->
            Option.iter (fun l -> Samples.add l (now w -. t0)) lat;
            push { v_client = client; v_cert = c; v_st = Live; v_inflight = 0 };
            k true
        | Error e ->
            fail m.a ("entry " ^ u ^ ": " ^ e);
            k false)
  in
  (* Preload: part of set-up. *)
  let pre = mix_new () in
  let preloaded = ref 0 in
  open_loop w ~rate:4000.0 ~count:sz.vm_preload (fun _ ->
      enter ~lat:None pre (fun _ -> incr preloaded));
  if not (run_until w (fun () -> !preloaded = sz.vm_preload)) || pre.a.failed > 0 then
    failwith "validate-mix: preload did not complete";
  run_for w 2.0;
  let setup_s = wall () -. t_setup in
  let m = mix_new () in
  (* 80/20 popularity over the population in arrival order. *)
  let pick () =
    let n = !npop in
    if Prng.float w.rng 1.0 < vm_hot_share then
      Prng.int w.rng (max 1 (int_of_float (vm_hot_frac *. float_of_int n)))
    else Prng.int w.rng n
  in
  let rec pick_settled tries =
    let v = !pop.(pick ()) in
    if v.v_st <> Exiting || tries = 0 then v else pick_settled (tries - 1)
  in
  let pr = if traced then Some (probe_start w) else None in
  let s0 = snapshot w.net (tables login club) in
  let c0 = cpu () in
  let arrivals = ref 0 in
  span "round.mix" (fun () ->
      open_loop w ~rate:sz.vm_rate ~count:sz.vm_ops (fun _ ->
          incr arrivals;
          let r = Prng.float w.rng 1.0 in
          if r < vm_enter then begin
            sent m;
            enter ~lat:(Some m.issue_lat) m (fun _ -> landed m)
          end
          else if r < vm_enter +. vm_exit then begin
            let v = pick_settled 8 in
            if v.v_st = Live && v.v_inflight = 0 then begin
              sent m;
              v.v_st <- Exiting;
              Shard.exit_role club ~client_host:w.client v.v_cert (fun r ->
                  landed m;
                  match r with
                  | Ok () -> v.v_st <- Exited
                  | Error e ->
                      v.v_st <- Live;
                      fail m.a ("exit: " ^ e))
            end
          end
          else begin
            let v = pick_settled 8 in
            if v.v_st <> Exiting then begin
              sent m;
              v.v_inflight <- v.v_inflight + 1;
              validate_routed w club m.validate_lat m.a ~client:v.v_client
                ~expect_ok:(v.v_st = Live) ~what:"validate-mix probe" v.v_cert (fun _ ->
                  v.v_inflight <- v.v_inflight - 1;
                  landed m)
            end
          end);
      let tick, close = sim_slicer w m ~span:vm_slice in
      ignore (run_until w ~step:tick (fun () -> !arrivals = sz.vm_ops && m.done_ = m.sent));
      close ());
  let busy = cpu () -. c0 in
  let s1 = snapshot w.net (tables login club) in
  let harvest = Option.map (probe_stop w) pr in
  m.a.attempted <- m.a.attempted + m.sent;
  if m.done_ < m.sent then
    fail m.a (Printf.sprintf "%d operations never answered" (m.sent - m.done_));
  (* Audit: live members validate, exited members are refused. *)
  run_for w 1.0;
  let members = Array.sub !pop 0 !npop in
  m.a.attempted <- m.a.attempted + Array.length members;
  let swept = ref 0 and exited = ref 0 in
  let sweep_lat = Samples.create () in
  Array.iter
    (fun v ->
      if v.v_st = Exited then incr exited;
      validate_routed w club sweep_lat m.a ~client:v.v_client ~expect_ok:(v.v_st = Live)
        ~what:"final sweep" v.v_cert (fun _ -> incr swept))
    members;
  if not (run_until w (fun () -> !swept = Array.length members)) then
    fail m.a "final sweep never answered";
  let layers =
    match harvest with
    | None -> []
    | Some h ->
        let picks =
          Array.init direct_count (fun _ ->
              let v = members.(pick ()) in
              (Option.get (issuer club v.v_cert), v.v_client, v.v_cert))
        in
        common_layers ~net:w.net ~tables:(tables login club) ~ops:m.done_ s0 s1
        @ [
            ("service.validate_us", direct_validate_us picks, "us");
            ("trace.dropped", float_of_int h.dropped, "count");
          ]
        @ direct_login_us w login
  in
  let issue = Samples.sorted m.issue_lat and validate = Samples.sorted m.validate_lat in
  {
    setup_s;
    busy;
    ops = m.done_;
    rates = Samples.sorted m.rates;
    issue;
    validate;
    audit = m.a;
    extras = [ ("exited_members", float_of_int !exited, "count") ];
    det =
      Printf.sprintf "ops=%d pop=%d exited=%d issue=%d:%h/%h validate=%d:%h/%h" m.done_
        !npop !exited (Array.length issue) (pct issue 50.0) (pct issue 99.0)
        (Array.length validate) (pct validate 50.0) (pct validate 99.0);
    audit_det = "";
    layers;
  }

(* ------------------------------------------------------------------ *)
(* revoke-churn                                                        *)
(* ------------------------------------------------------------------ *)

type cstate = CLive | CBusy | CFired

type cuser = {
  c_name : string;
  c_client : Principal.vci;
  mutable c_login : Cert.rmc;
  mutable c_member : Cert.rmc option;
  mutable c_voter : Cert.rmc option;
  mutable c_st : cstate;
  mutable c_inflight : int;  (* probes in flight; a revocation waits for them *)
}

let revoke_churn sz ~seed ~traced =
  let t_setup = wall () in
  let w = make_world seed in
  let login, club = deploy ~rolefile:churn_rolefile w in
  let chair_client = new_vci w in
  let chair = ref None in
  Shard.request_entry club ~client_host:w.client ~client:chair_client ~role:"Chair" ~args:[]
    ~creds:[ login_cert login ~client:chair_client "chair" ] (function
    | Ok c -> chair := Some c
    | Error e -> failwith ("Chair entry: " ^ e));
  let users =
    Array.init sz.rc_users (fun i ->
        let c_name = user_name seed i and c_client = new_vci w in
        {
          c_name;
          c_client;
          c_login = login_cert login ~client:c_client c_name;
          c_member = None;
          c_voter = None;
          c_st = CBusy;
          c_inflight = 0;
        })
  in
  (* Member then Voter, each a routed entry. *)
  let enter_both (m : mix) ~lat u k =
    let entry role creds k =
      let t0 = now w in
      sent m;
      Shard.request_entry club ~client_host:w.client ~client:u.c_client ~role
        ~args:[ V.Str u.c_name ] ~creds (fun r ->
          landed m;
          match r with
          | Ok c ->
              if lat then Samples.add m.issue_lat (now w -. t0);
              k (Some c)
          | Error e ->
              fail m.a (role ^ " entry " ^ u.c_name ^ ": " ^ e);
              k None)
    in
    entry "Member" [ u.c_login ] (function
      | None -> k ()
      | Some mc ->
          u.c_member <- Some mc;
          entry "Voter" [ mc ] (function
            | None -> k ()
            | Some vc ->
                u.c_voter <- Some vc;
                u.c_st <- CLive;
                k ()))
  in
  let pre = mix_new () in
  let ready = ref 0 in
  open_loop w ~rate:1000.0 ~count:sz.rc_users (fun i ->
      enter_both pre ~lat:false users.(i) (fun () -> incr ready));
  if not (run_until w (fun () -> !ready = sz.rc_users && !chair <> None)) || pre.a.failed > 0
  then failwith "revoke-churn: preload did not complete";
  run_for w 3.0;
  let chair = Option.get !chair in
  let setup_s = wall () -. t_setup in
  let m = mix_new () in
  let revokes = ref 0 and fires = ref 0 in
  (* [idle]: no probe in flight, required before revoking or firing. *)
  let rec pick_in ?(idle = false) st tries =
    let u = users.(Prng.int w.rng sz.rc_users) in
    if u.c_st = st && not (idle && u.c_inflight > 0) then Some u
    else if tries = 0 then None
    else pick_in ~idle st (tries - 1)
  in
  let validate_cert u cert ~expect_ok ~what k =
    sent m;
    u.c_inflight <- u.c_inflight + 1;
    validate_routed w club m.validate_lat m.a ~client:u.c_client ~expect_ok ~what cert (fun _ ->
        u.c_inflight <- u.c_inflight - 1;
        landed m;
        k ())
  in
  let pr = if traced then Some (probe_start w) else None in
  let s0 = snapshot w.net (tables login club) in
  let c0 = cpu () in
  let arrivals = ref 0 in
  span "round.mix" (fun () ->
      open_loop w ~rate:sz.rc_rate ~count:sz.rc_ops (fun _ ->
          incr arrivals;
          let r = Prng.float w.rng 1.0 in
          if r < rc_revoke then begin
            match pick_in ~idle:true CLive 8 with
            | None -> ()
            | Some u ->
                (* Revoke the login at its issuer; once the cascade has had
                   time to cross both levels, the old Member and Voter must
                   be refused; then log in again and re-enter. *)
                u.c_st <- CBusy;
                incr revokes;
                sent m;
                Service.revoke_certificate login u.c_login;
                landed m;
                let old_member = Option.get u.c_member and old_voter = Option.get u.c_voter in
                Engine.schedule w.engine ~delay:rc_settle (fun () ->
                    validate_cert u old_member ~expect_ok:false ~what:"member of revoked login"
                      (fun () ->
                        validate_cert u old_voter ~expect_ok:false
                          ~what:"voter of revoked login" (fun () ->
                            sent m;
                            u.c_login <- login_cert login ~client:u.c_client u.c_name;
                            landed m;
                            enter_both m ~lat:true u (fun () -> ()))))
          end
          else if r < rc_revoke +. rc_fire then begin
            match pick_in ~idle:true CLive 8 with
            | None -> ()
            | Some u ->
                u.c_st <- CBusy;
                incr fires;
                sent m;
                Shard.revoke_role_instance club ~client_host:w.client ~revoker:chair ~role:"Voter"
                  ~args:[ V.Str u.c_name ] (fun r ->
                    landed m;
                    match r with
                    | Ok n when n >= 1 -> u.c_st <- CFired
                    | Ok n -> fail m.a (Printf.sprintf "fire %s revoked %d" u.c_name n)
                    | Error e -> fail m.a ("fire " ^ u.c_name ^ ": " ^ e))
          end
          else begin
            (* Probe a survivor (either certificate) or a fired Voter. *)
            match pick_in (if Prng.float w.rng 1.0 < 0.9 then CLive else CFired) 8 with
            | None -> ()
            | Some u when u.c_st = CFired ->
                validate_cert u (Option.get u.c_voter) ~expect_ok:false ~what:"fired voter"
                  (fun () -> ())
            | Some u ->
                let c = if Prng.bool w.rng then u.c_member else u.c_voter in
                validate_cert u (Option.get c) ~expect_ok:true ~what:"survivor" (fun () -> ())
          end);
      let tick, close = sim_slicer w m ~span:rc_slice in
      ignore
        (run_until w ~step:tick (fun () ->
             !arrivals = sz.rc_ops && m.done_ = m.sent
             && Array.for_all (fun u -> u.c_st <> CBusy) users));
      close ());
  let busy = cpu () -. c0 in
  let s1 = snapshot w.net (tables login club) in
  let harvest = Option.map (probe_stop w) pr in
  m.a.attempted <- m.a.attempted + m.sent;
  if m.done_ < m.sent then fail m.a (Printf.sprintf "%d operations never answered" (m.sent - m.done_));
  let stuck = Array.fold_left (fun n u -> if u.c_st = CBusy then n + 1 else n) 0 users in
  if stuck > 0 then fail m.a (Printf.sprintf "%d users never settled" stuck);
  (* Audit: survivors validate; fired Voters stay blacklisted and are
     refused. *)
  run_for w rc_settle;
  let sweep_lat = Samples.create () in
  let expected = ref 0 and swept = ref 0 in
  Array.iter
    (fun u ->
      match u.c_st with
      | CLive ->
          List.iter
            (fun c ->
              incr expected;
              validate_routed w club sweep_lat m.a ~client:u.c_client ~expect_ok:true
                ~what:"final survivor" (Option.get c) (fun _ -> incr swept))
            [ u.c_member; u.c_voter ]
      | CFired ->
          check m.a
            (Shard.blacklisted club ~role:"Voter" ~args:[ V.Str u.c_name ])
            ("fired Voter " ^ u.c_name ^ " not blacklisted");
          incr expected;
          validate_routed w club sweep_lat m.a ~client:u.c_client ~expect_ok:false
            ~what:"final fired voter" (Option.get u.c_voter) (fun _ -> incr swept)
      | CBusy -> ())
    users;
  m.a.attempted <- m.a.attempted + !expected;
  if not (run_until w (fun () -> !swept = !expected)) then fail m.a "final sweep never answered";
  let layers =
    match harvest with
    | None -> []
    | Some h ->
        let live = List.filter (fun u -> u.c_st = CLive) (Array.to_list users) |> Array.of_list in
        let picks =
          if Array.length live = 0 then [||]
          else
            Array.init direct_count (fun _ ->
                let u = live.(Prng.int w.rng (Array.length live)) in
                let c = Option.get (if Prng.bool w.rng then u.c_member else u.c_voter) in
                (Option.get (issuer club c), u.c_client, c))
        in
        common_layers ~net:w.net ~tables:(tables login club) ~ops:m.done_ s0 s1
        @ revoke_layers ~revokes:!revokes s0 s1
        @ revoke_e2e h
        @ [ ("service.validate_us", direct_validate_us picks, "us") ]
        @ direct_login_us w login
  in
  let issue = Samples.sorted m.issue_lat and validate = Samples.sorted m.validate_lat in
  {
    setup_s;
    busy;
    ops = m.done_;
    rates = Samples.sorted m.rates;
    issue;
    validate;
    audit = m.a;
    extras =
      [ ("revocations", float_of_int !revokes, "count"); ("fires", float_of_int !fires, "count") ];
    det =
      Printf.sprintf "ops=%d revokes=%d fires=%d issue=%d:%h/%h validate=%d:%h/%h" m.done_
        !revokes !fires (Array.length issue) (pct issue 50.0) (pct issue 99.0)
        (Array.length validate) (pct validate 50.0) (pct validate 99.0);
    audit_det = "";
    layers;
  }

(* ------------------------------------------------------------------ *)
(* wire-mix                                                            *)
(* ------------------------------------------------------------------ *)

let wire_rolefile = {|
Admin <-
Login(u) <-
User(u) <- Login(u)* |>* Admin
|}

(* The client-facing operations of the sharded plane over handles of type
   ['h]: Remote's string handles, or certificates on the in-process
   Shard.  One session driver runs over either. *)
type 'h plane = {
  place : role:string -> args:V.t list -> ((int, string) result -> unit) -> unit;
  bootstrap :
    shard:int -> client:string -> roles:string list -> args:V.t list ->
    (('h, string) result -> unit) -> unit;
  issue :
    client:string -> role:string -> args:V.t list -> creds:'h list ->
    (('h, string) result -> unit) -> unit;
  validate : client:string -> 'h -> ((unit, string) result -> unit) -> unit;
  fire : revoker:'h -> role:string -> args:V.t list -> ((int, string) result -> unit) -> unit;
}

let remote_plane c =
  {
    place = (fun ~role ~args k -> Remote.Client.place c ~role ~args k);
    bootstrap =
      (fun ~shard ~client ~roles ~args k -> Remote.Client.bootstrap c ~shard ~client ~roles ~args k);
    issue = (fun ~client ~role ~args ~creds k -> Remote.Client.issue c ~client ~role ~args ~creds k);
    validate = (fun ~client handle k -> Remote.Client.validate c ~client ~handle k);
    fire = (fun ~revoker ~role ~args k -> Remote.Client.fire c ~revoker ~role ~args k);
  }

let shard_plane w club =
  let vcis = Hashtbl.create 1024 in
  let vci name =
    match Hashtbl.find_opt vcis name with
    | Some v -> v
    | None ->
        let v = new_vci w in
        Hashtbl.add vcis name v;
        v
  in
  {
    place = (fun ~role ~args k -> k (Ok (Shard.owner_index club ~role ~args)));
    bootstrap =
      (fun ~shard ~client ~roles ~args k ->
        k (Ok (Service.issue_arbitrary (Shard.shard club shard) ~client:(vci client) ~roles ~args)));
    issue =
      (fun ~client ~role ~args ~creds k ->
        Shard.request_entry club ~client_host:w.client ~client:(vci client) ~role ~args ~creds k);
    validate =
      (fun ~client cert k -> Shard.validate club ~client_host:w.client ~client:(vci client) cert k);
    fire =
      (fun ~revoker ~role ~args k ->
        Shard.revoke_role_instance club ~client_host:w.client ~revoker ~role ~args k);
  }

type wire_lat = {
  l_place : Samples.t;
  l_boot : Samples.t;
  l_issue : Samples.t;
  l_validate : Samples.t;
  l_fire : Samples.t;
}

let wire_lat () =
  {
    l_place = Samples.create ();
    l_boot = Samples.create ();
    l_issue = Samples.create ();
    l_validate = Samples.create ();
    l_fire = Samples.create ();
  }

(* Closed loop: [wm_window] sessions outstanding over one client.  A
   session places a fresh user, bootstraps its Login at the owning shard,
   enters User, validates the membership [validates] times and, for a
   seeded [fire_share], has the owning shard's Admin fire it and checks
   that the fired handle is refused.  Choices are drawn in session order, so every plane
   sees the same op stream for a seed.  Returns the completed-op counter;
   [on_done] runs once every session has ended. *)
let drive_sessions (p : 'h plane) ~now ~rng ~name ~sessions ~validates ~fire_share
    ~(admins : 'h array) a lat ~on_done =
  let next = ref 0 and finished = ref 0 and ops = ref 0 in
  let timed s k =
    let t0 = now () in
    fun r ->
      Samples.add s (now () -. t0);
      incr ops;
      a.attempted <- a.attempted + 1;
      k r
  in
  let rec session () =
    if !next < sessions then begin
      let i = !next in
      incr next;
      let fire = Prng.float rng 1.0 < fire_share in
      let u = name i in
      let args = [ V.Str u ] in
      let finish () =
        incr finished;
        if !finished = sessions then on_done () else session ()
      in
      let bad what e =
        fail a (what ^ " " ^ u ^ ": " ^ e);
        finish ()
      in
      p.place ~role:"User" ~args
        (timed lat.l_place (function
          | Error e -> bad "place" e
          | Ok owner ->
              p.bootstrap ~shard:owner ~client:u ~roles:[ "Login" ] ~args
                (timed lat.l_boot (function
                  | Error e -> bad "bootstrap" e
                  | Ok lh ->
                      p.issue ~client:u ~role:"User" ~args ~creds:[ lh ]
                        (timed lat.l_issue (function
                          | Error e -> bad "issue" e
                          | Ok h ->
                              let rec probe n =
                                if n = 0 then fired ()
                                else
                                  p.validate ~client:u h
                                    (timed lat.l_validate (function
                                      | Ok () -> probe (n - 1)
                                      | Error e -> bad "validate" e))
                              and fired () =
                                if not fire then finish ()
                                else
                                  p.fire ~revoker:admins.(owner) ~role:"User" ~args
                                    (timed lat.l_fire (function
                                      | Error e -> bad "fire" e
                                      | Ok n ->
                                          judge a (n >= 1) ("fire " ^ u ^ " revoked nothing");
                                          p.validate ~client:u h
                                            (timed lat.l_validate (fun r ->
                                                 judge a (Result.is_error r)
                                                   ("fired handle " ^ u ^ " accepted");
                                                 finish ()))))
                              in
                              probe validates))))))
    end
  in
  for _ = 1 to wm_window do
    session ()
  done;
  ops

(* Set-up's starting population: users placed, bootstrapped and entered,
   with no validations or fires.  Returns the preload's own audit. *)
let preload_sessions plane ~now sz ~seed ~admins ~on_done =
  let a = audit () in
  ignore
    (drive_sessions plane ~now ~rng:(Prng.create 0L) ~name:(Printf.sprintf "p%d-%d" seed)
       ~sessions:sz.wm_preload ~validates:0 ~fire_share:0.0 ~admins a
       (wire_lat ()) ~on_done);
  a

let mix_sessions plane ~now sz ~seed ~admins a lat ~on_done =
  drive_sessions plane ~now
    ~rng:(Prng.create (Int64.of_int ((seed * 1_000_003) + 17)))
    ~name:(Printf.sprintf "w%d-%d" seed) ~sessions:sz.wm_sessions ~validates:wm_validates
    ~fire_share:wm_fire ~admins a lat ~on_done

(* Each run works in a private directory under the checkout, removed at
   exit: a reused pid must never recover a stale WAL. *)
let data_root = ".perfbench-data"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run_dir =
  lazy
    (let d = Filename.concat data_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     (try Unix.mkdir data_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     rm_rf d;
     Unix.mkdir d 0o700;
     at_exit (fun () -> rm_rf d);
     d)

(* A wedged socket fails the round instead of hanging the run. *)
let wire_deadline = 120.0

let wire_mix sz ~seed ~traced ~round_ix =
  let t_setup = wall () in
  let dir = Filename.concat (Lazy.force run_dir) (Printf.sprintf "round-%d" round_ix) in
  let b = Backend_unix.create ~data_dir:dir ~seed:(Int64.of_int seed) () in
  let backend = Backend_unix.pack b in
  let net = Backend.net backend and engine = Backend.engine backend in
  let reg = Service.create_registry () in
  let port = Backend_unix.listen b () in
  let shards = 2 in
  let svcs =
    Array.init shards (fun i ->
        let host = Net.add_host net (Printf.sprintf "h.wire.s%d" i) in
        let svc =
          ok_or "wire shard"
            (Service.create net host reg ~name:(Printf.sprintf "Wire#%d" i) ~rolefile_id:"Wire"
               ~rolefile:wire_rolefile ~compound_certificates:false
               ~disk:(Backend.disk backend host) ())
        in
        ignore (Remote.serve_shard net svc ~shard_id:i);
        let wire = Printf.sprintf "wire.s%d" i in
        Backend_unix.peer b ~name:wire ~port;
        Backend_unix.alias b ~name:wire ~local:(Net.host_name host);
        svc)
  in
  let router = Net.add_host net "h.wire.router" in
  ignore
    (Remote.serve_router net router ~ring:(Shard.Ring.make ~shards ())
       ~shards:(Array.init shards (Printf.sprintf "wire.s%d")));
  Backend_unix.peer b ~name:"wire.router" ~port;
  Backend_unix.alias b ~name:"wire.router" ~local:"h.wire.router";
  let c = Remote.Client.create net (Net.add_host net "h.wire.client") ~router:"wire.router" in
  let timed_out = ref false in
  let guard =
    Engine.timer engine ~delay:wire_deadline (fun () ->
        timed_out := true;
        Backend.stop backend)
  in
  let cleanup () =
    Engine.cancel guard;
    Backend_unix.shutdown b;
    rm_rf dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let admins = Array.make shards "" and got = ref 0 in
  Engine.schedule engine ~delay:0.0 (fun () ->
      for i = 0 to shards - 1 do
        Remote.Client.bootstrap c ~shard:i ~client:"admin" ~roles:[ "Admin" ] ~args:[] (function
          | Ok h ->
              admins.(i) <- h;
              incr got;
              if !got = shards then Backend.stop backend
          | Error e -> failwith ("admin bootstrap: " ^ e))
      done);
  Backend.run backend;
  if !got < shards then failwith "wire-mix: admin bootstrap never answered";
  let pre = ref (audit ()) in
  Engine.schedule engine ~delay:0.0 (fun () ->
      pre :=
        preload_sessions (remote_plane c) ~now:wall sz ~seed ~admins ~on_done:(fun () ->
            Backend.stop backend));
  Backend.run backend;
  if !timed_out || !pre.failed > 0 then
    failwith ("wire-mix: preload failed: " ^ String.concat "; " !pre.notes);
  let setup_s = wall () -. t_setup in
  let a = audit () and lat = wire_lat () in
  let tables = Array.to_list (Array.map Service.table svcs) in
  let s0 = snapshot net tables in
  let t0 = ref 0.0 and t1 = ref Float.nan and c0 = ref 0.0 in
  let ops = ref (ref 0) in
  (* Wall-clock slices, cut by a timer ticking ten times a slice. *)
  let rates = Samples.create () and stop_slicing = ref ignore in
  Engine.schedule engine ~delay:0.0 (fun () ->
      t0 := wall ();
      c0 := cpu ();
      ops :=
        mix_sessions (remote_plane c) ~now:wall sz ~seed ~admins a lat ~on_done:(fun () ->
            t1 := wall ();
            !stop_slicing ();
            Backend.stop backend);
      let tick, close =
        slicer ~clock:wall ~elapsed:wall ~span:wm_slice ~count:(fun () -> !(!ops)) rates
      in
      let rec every () =
        tick ();
        let timer = Engine.timer engine ~delay:(wm_slice /. 10.0) every in
        stop_slicing :=
          fun () ->
            Engine.cancel timer;
            close ()
      in
      every ());
  span "round.mix" (fun () -> Backend.run backend);
  let busy_cpu = cpu () -. !c0 in
  let s1 = snapshot net tables in
  if !timed_out then fail a "wire-mix: deadline passed with sessions outstanding";
  let ops = !(!ops) in
  let busy = !t1 -. !t0 in
  let sorted s = Samples.sorted s in
  let layers =
    if not traced then []
    else
      let st = Net.stats net in
      let by cat = dbytes s0 s1 cat in
      common_layers ~net ~tables ~ops s0 s1
      @ [
          ("remote.place_p50_ms", 1000.0 *. pct (sorted lat.l_place) 50.0, "ms");
          ("remote.bootstrap_p50_ms", 1000.0 *. pct (sorted lat.l_boot) 50.0, "ms");
          ("remote.fire_p99_ms", 1000.0 *. pct (sorted lat.l_fire) 99.0, "ms");
          ("remote.bytes_per_op", ratio (by "oasis.client" + by "oasis.router.forward") ops, "B");
          ("wire.cpu_us_per_op", 1e6 *. per busy_cpu ops, "us");
          ("wire.fsync_samples", float_of_int (Stats.latency_samples st "store.fsync"), "count");
        ]
      @
      let phost = Principal.Host.create "perfbench" in
      let pdom = Principal.Host.boot_domain phost in
      direct_issue_revoke_us svcs.(0) ~roles:[ "Login" ]
        ~args_of:(fun i -> [ V.Str (Printf.sprintf "direct%d" i) ])
        (Array.init direct_count (fun _ -> Principal.Host.new_vci phost pdom))
  in
  let issue = sorted lat.l_issue and validate = sorted lat.l_validate in
  {
    setup_s;
    busy;
    ops;
    rates = Samples.sorted rates;
    issue;
    validate;
    audit = a;
    extras = [ ("fires", float_of_int lat.l_fire.Samples.n, "count") ];
    det = "";
    audit_det = "";
    layers;
  }

(* ------------------------------------------------------------------ *)
(* The layer ladder (traced runs)                                      *)
(* ------------------------------------------------------------------ *)

type rung = Bare | Durable | Sharded
type kind = Member_kind | Wire_kind

let rung_name = function Bare -> "bare" | Durable -> "durable" | Sharded -> "shard"

(* CPU seconds per entry for [count] fresh entries, open loop at [rate],
   through one entry point: a bare non-durable Service, a durable Service,
   or the 2-shard router.  Same seed, same users and the same arrival
   times on every rung, so differences between rungs are the cost of the
   layer a rung adds. *)
let ladder_rung ~kind ~seed ~count ~rate rung =
  Gc.compact ();
  let w = make_world seed in
  let rolefile, role =
    match kind with Member_kind -> (member_rolefile, "Member") | Wire_kind -> (wire_rolefile, "User")
  in
  let login =
    match kind with
    | Wire_kind -> None
    | Member_kind ->
        Some
          (ok_or "Login"
             (Service.create w.net (Net.add_host w.net "h.Login") w.reg ~name:"Login"
                ~rolefile:login_rolefile ~batch_notifications:true ()))
  in
  let at, enter =
    match rung with
    | Bare | Durable ->
        let host = Net.add_host w.net "h.Club" in
        let disk = if rung = Durable then Some (Disk.create w.net host ()) else None in
        let svc =
          ok_or "Club"
            (Service.create w.net host w.reg ~name:"Club" ~rolefile ?disk
               ~compound_certificates:false ())
        in
        List.iter (fun s -> Oasis_core.Group.add (Service.group svc "sites") (V.Str s)) sites;
        ( (fun _ -> svc),
          fun ~client u ~creds k ->
            Service.request_entry svc ~client_host:w.client ~client ~role ~args:[ V.Str u ] ~creds
              k )
    | Sharded ->
        let club =
          ok_or "Club"
            (Shard.create w.net w.reg ~name:"Club" ~rolefile ~shards:2 ~durable:true
               ~groups:[ ("sites", sites) ] ())
        in
        ( (fun u -> Shard.owner club ~role ~args:[ V.Str u ]),
          fun ~client u ~creds k ->
            Shard.request_entry club ~client_host:w.client ~client ~role ~args:[ V.Str u ] ~creds k )
  in
  let users =
    Array.init count (fun i ->
        let u = user_name seed i and client = new_vci w in
        let cred =
          match login with
          | Some l -> login_cert l ~client u
          | None -> Service.issue_arbitrary (at u) ~client ~roles:[ "Login" ] ~args:[ V.Str u ]
        in
        (u, client, cred))
  in
  let landed = ref 0 and failed = ref 0 in
  let c0 = cpu () in
  span ("ladder." ^ rung_name rung) (fun () ->
      open_loop w ~rate ~count (fun i ->
          let u, client, cred = users.(i) in
          enter ~client u ~creds:[ cred ] (fun r ->
              incr landed;
              if Result.is_error r then incr failed));
      ignore (run_until w (fun () -> !landed = count)));
  let c = cpu () -. c0 in
  if !landed < count || !failed > 0 then failwith ("ladder " ^ rung_name rung ^ ": entries failed");
  c /. float_of_int count

let issue_ladder ~kind ~seed ~count ~rate : metric list * float =
  let us r = 1e6 *. ladder_rung ~kind ~seed ~count ~rate r in
  let bare = us Bare and durable = us Durable and sharded = us Sharded in
  ( [
      ("service.entry_us_per_issue", bare, "us");
      ("store.durable_us_per_issue", durable -. bare, "us");
      ("shard.router_us_per_issue", sharded -. durable, "us");
      ("ladder.issues", float_of_int count, "count");
    ],
    sharded )

(* The wire-mix session stream on the simulator, straight into the
   in-process Shard or through Remote (JSON codec, router and shard
   servers over Net.call): CPU seconds per op. *)
let wire_sim sz ~seed ~remote =
  Gc.compact ();
  let w = make_world seed in
  let a = audit () and lat = wire_lat () in
  let run : 'h. 'h plane -> float =
   fun plane ->
    let admins = Array.make 2 None in
    for i = 0 to 1 do
      plane.bootstrap ~shard:i ~client:"admin" ~roles:[ "Admin" ] ~args:[] (fun r ->
          admins.(i) <- Some (ok_or "admin bootstrap" r))
    done;
    if not (run_until w (fun () -> Array.for_all Option.is_some admins)) then
      failwith "wire sim: admin bootstrap never answered";
    let admins = Array.map Option.get admins in
    let preloaded = ref false in
    let pre =
      preload_sessions plane ~now:(fun () -> now w) sz ~seed ~admins ~on_done:(fun () ->
          preloaded := true)
    in
    if not (run_until w (fun () -> !preloaded)) || pre.failed > 0 then
      failwith "wire sim: preload failed";
    let finished = ref false and ops = ref (ref 0) in
    let c0 = cpu () in
    span (if remote then "ladder.remote_sim" else "ladder.shard_sim") (fun () ->
        ops :=
          mix_sessions plane ~now:(fun () -> now w) sz ~seed ~admins a lat ~on_done:(fun () ->
              finished := true);
        ignore (run_until w (fun () -> !finished)));
    let c = cpu () -. c0 in
    if (not !finished) || a.failed > 0 then
      failwith ("wire sim: " ^ String.concat "; " (List.rev a.notes));
    c /. float_of_int !(!ops)
  in
  if remote then begin
    let hosts =
      Array.init 2 (fun i ->
          let host = Net.add_host w.net (Printf.sprintf "h.wire.s%d" i) in
          let svc =
            ok_or "wire shard"
              (Service.create w.net host w.reg ~name:(Printf.sprintf "Wire#%d" i)
                 ~rolefile_id:"Wire" ~rolefile:wire_rolefile ~compound_certificates:false
                 ~disk:(Disk.create w.net host ()) ())
          in
          ignore (Remote.serve_shard w.net svc ~shard_id:i);
          Net.host_name host)
    in
    let router = Net.add_host w.net "h.wire.router" in
    ignore (Remote.serve_router w.net router ~ring:(Shard.Ring.make ~shards:2 ()) ~shards:hosts);
    run (remote_plane (Remote.Client.create w.net w.client ~router:"h.wire.router"))
  end
  else
    let club =
      ok_or "Wire"
        (Shard.create w.net w.reg ~name:"Wire" ~rolefile:wire_rolefile ~shards:2 ~durable:true ())
    in
    run (shard_plane w club)

(* ------------------------------------------------------------------ *)
(* Runs and reports                                                    *)
(* ------------------------------------------------------------------ *)

let workloads = [ "issue-grow"; "validate-mix"; "revoke-churn"; "wire-mix" ]
let sim name = name <> "wire-mix"

(* [full_audit]: run issue-grow's crash, recovery and validation sweep;
   the other workloads always audit fully. *)
let round_of ?(full_audit = true) sz name ~seed ~traced ~round_ix =
  match name with
  | "issue-grow" -> issue_grow sz ~seed ~traced ~full_audit
  | "validate-mix" -> validate_mix sz ~seed ~traced
  | "revoke-churn" -> revoke_churn sz ~seed ~traced
  | "wire-mix" -> wire_mix sz ~seed ~traced ~round_ix
  | _ -> invalid_arg name

(* The gated metrics: [--trace 0] reports exactly [end_to_end], [--trace 1]
   exactly [per_layer] (BENCHMARK.json lists the same names). *)
let end_to_end = [ "setup_s"; "ops_per_s"; "issue_p50_ms"; "validate_p50_ms"; "peak_heap_mb" ]

let per_layer =
  [ "shard.router_fwd_per_op"; "shard.router_us_per_issue"; "service.entry_us_per_issue";
    "store.durable_us_per_issue"; "service.sigcache_hit_ratio";
    "service.issue_arbitrary_us"; "service.revoke_us"; "credrec.edge_ops_per_op";
    "credrec.live_records"; "store.wal_bytes_per_op"; "store.fsyncs_per_op";
    "store.fsync_batch_mean"; "store.snapshot_bytes_per_op"; "store.snapshots_per_kop";
    "net.msgs_per_op"; "net.bytes_per_op"; "gc.minor_words_per_op"; "gc.promoted_words_per_op";
    "gc.major_collections_per_kop"; "trace.overhead_frac" ]

let ops_per_s r = float_of_int r.ops /. r.busy

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let print_metric ?(note = "") (name, v, unit) =
  Printf.printf "  %-30s %14.6g %-6s %s\n" name v unit note

let metrics_json (ms : metric list) =
  J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) ms)

(* Print the human-readable lines, then the JSON result as the last line;
   the exit code is 1 when an audit failed or a gated metric is missing. *)
let finish ~attempted ~failed ~notes ~(gated : metric list) =
  let missing = List.filter (fun (_, v, _) -> not (Float.is_finite v)) gated in
  List.iter (fun (n, _, _) -> Printf.printf "  MISSING: %s was not measured\n" n) missing;
  List.iter (Printf.printf "  AUDIT FAILURE: %s\n") notes;
  let correct = failed = 0 && missing = [] in
  Printf.printf "  error_rate %.6g (%d of %d operations)\n" (ratio failed (max 1 attempted)) failed
    attempted;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (max 1 attempted));
            ("failed", J.Int failed);
            ("metrics", metrics_json gated);
          ]));
  exit (if correct then 0 else 1)

let e2e_run sz name ~seed ~seconds =
  let t_start = wall () in
  let rec loop acc i =
    if i >= max_rounds || (i >= min_rounds && wall () -. t_start >= seconds) then List.rev acc
    else begin
      Gc.compact ();
      let r = round_of sz name ~seed ~traced:false ~round_ix:i ~full_audit:(i = 0) in
      loop (r :: acc) (i + 1)
    end
  in
  let rounds = loop [] 0 in
  (* Per-round latency percentile in ms, for the rounds that sampled it. *)
  let round_ms sel p =
    List.filter_map (fun r -> if sel r = [||] then None else Some (1000.0 *. pct (sel r) p)) rounds
  in
  let slowest = List.fold_left Float.max Float.neg_infinity in
  let rates = Array.concat (List.map (fun (r : round) -> r.rates) rounds) in
  Array.sort Float.compare rates;
  let gated =
    [
      ("setup_s", median (List.map (fun r -> r.setup_s) rounds), "s");
      ("ops_per_s", pct rates 25.0, "1/s");
      ("issue_p50_ms", slowest (round_ms (fun r -> r.issue) 50.0), "ms");
      ("validate_p50_ms", slowest (round_ms (fun r -> r.validate) 50.0), "ms");
      ("peak_heap_mb", peak_heap_mb (), "MiB");
    ]
  in
  (* Tails over every round's samples together; printed, not gated. *)
  let pooled_ms sel p =
    let all = Array.concat (List.map sel rounds) in
    Array.sort Float.compare all;
    1000.0 *. pct all p
  in
  let tails =
    [
      ("issue_p99_ms", pooled_ms (fun r -> r.issue) 99.0, "ms");
      ("validate_p99_ms", pooled_ms (fun r -> r.validate) 99.0, "ms");
    ]
  in
  let r0 = List.hd rounds in
  let samples sel = List.fold_left (fun n r -> n + Array.length (sel r)) 0 rounds in
  Printf.printf "perfbench %s seed=%d: %d rounds; ops_per_s over %s time, latencies in %s time\n"
    name seed (List.length rounds)
    (if sim name then "process CPU" else "wall")
    (if sim name then "virtual" else "wall");
  List.iter
    (fun ((n, _, _) as m) ->
      let note =
        match n with
        | "setup_s" -> "median of the rounds' set-ups"
        | "ops_per_s" ->
            Printf.sprintf "lower quartile of %d slices, %d ops per round" (Array.length rates)
              r0.ops
        | "issue_p50_ms" -> "slowest round"
        | "validate_p50_ms" -> "slowest round"
        | "issue_p99_ms" -> Printf.sprintf "all rounds, %d samples" (samples (fun r -> r.issue))
        | "validate_p99_ms" ->
            Printf.sprintf "all rounds, %d samples" (samples (fun r -> r.validate))
        | _ -> ""
      in
      print_metric ~note m)
    (gated @ tails);
  (* Workload-specific extras, from the rounds that measured them. *)
  List.iter
    (fun (n, _, u) ->
      let vs = List.filter_map (fun r -> List.find_opt (fun (n', _, _) -> n' = n) r.extras) rounds in
      print_metric ~note:(Printf.sprintf "median of %d round(s)" (List.length vs))
        (n, median (List.map (fun (_, v, _) -> v) vs), u))
    r0.extras;
  let per_round label f =
    Printf.printf "  per-round %s:%s\n" label
      (String.concat "" (List.map (fun r -> Printf.sprintf " %.5g" (f r)) rounds))
  in
  per_round "ops_per_s" ops_per_s;
  Printf.printf "  slice ops_per_s: p10 %.5g p25 %.5g p50 %.5g p75 %.5g\n" (pct rates 10.0)
    (pct rates 25.0) (pct rates 50.0) (pct rates 75.0);
  per_round "issue_p50_ms" (fun r -> 1000.0 *. pct r.issue 50.0);
  per_round "validate_p50_ms" (fun r -> 1000.0 *. pct r.validate 50.0);
  (* Rounds of one seed on the simulator must agree exactly. *)
  let diverged = sim name && List.exists (fun r -> r.det <> r0.det) rounds in
  let attempted = List.fold_left (fun n r -> n + r.audit.attempted) 0 rounds in
  let failed =
    List.fold_left (fun n r -> n + r.audit.failed) 0 rounds + if diverged then 1 else 0
  in
  let notes =
    List.concat_map (fun r -> List.rev r.audit.notes) rounds
    @ if diverged then [ "rounds of one seed diverged on the simulator" ] else []
  in
  finish ~attempted ~failed ~notes ~gated

let find name (ms : metric list) =
  match List.find_opt (fun (n, _, _) -> n = name) ms with Some (_, v, _) -> v | None -> Float.nan

(* An untraced round for the baseline, a traced round for the Stats, GC
   and span deltas, then the layer ladder on the same op stream. *)
let traced_layers sz name ~seed =
  Gc.compact ();
  let r0 = round_of sz name ~seed ~traced:false ~round_ix:0 ~full_audit:false in
  Gc.compact ();
  Trace.set_enabled bench_trace true;
  let r1 = round_of sz name ~seed ~traced:true ~round_ix:1 in
  let ladder =
    if sim name then begin
      let count, rate =
        match name with
        | "issue-grow" -> (sz.grow_entries, sz.grow_rate)
        | "validate-mix" -> (Array.length r1.issue, sz.vm_rate *. vm_enter)
        | _ -> (Array.length r1.issue, sz.rc_rate *. rc_revoke *. 2.0)
      in
      let ms, attributed = issue_ladder ~kind:Member_kind ~seed ~count ~rate in
      ms
      @
      if name = "issue-grow" then
        let measured = 1e6 *. r0.busy /. float_of_int r0.ops in
        [
          ("issue.measured_us", measured, "us");
          ("issue.attributed_us", attributed, "us");
          ("issue.unattributed_us", measured -. attributed, "us");
        ]
      else []
    end
    else begin
      let ms, _ = issue_ladder ~kind:Wire_kind ~seed ~count:sz.wm_sessions ~rate:1000.0 in
      let shard_op = 1e6 *. wire_sim sz ~seed ~remote:false in
      let remote_op = 1e6 *. wire_sim sz ~seed ~remote:true in
      let wire_op = 1e6 *. r1.busy /. float_of_int r1.ops in
      ms
      @ [
          ("shard.inproc_us_per_op", shard_op, "us");
          ("remote.codec_us_per_op", remote_op -. shard_op, "us");
          ("backend_unix.us_per_op", wire_op -. remote_op, "us");
          ("wire.wall_us_per_op", wire_op, "us");
        ]
    end
  in
  Trace.set_enabled bench_trace false;
  let overhead = (ops_per_s r0 /. ops_per_s r1) -. 1.0 in
  (r0, r1, r1.layers @ ladder @ [ ("trace.overhead_frac", overhead, "ratio") ])

let traced_run sz name ~seed =
  let r0, r1, layers = traced_layers sz name ~seed in
  Printf.printf "perfbench %s seed=%d: traced round, per-layer table\n" name seed;
  Printf.printf "  untraced ops_per_s %.6g, traced %.6g\n" (ops_per_s r0) (ops_per_s r1);
  List.iter (fun m -> print_metric m) layers;
  Printf.printf "  bench spans (CPU s):";
  List.iter
    (fun n -> let c = span_cpu n in if c > 0.0 then Printf.printf " %s=%.4g" n c)
    [ "round.mix"; "ladder.bare"; "ladder.durable"; "ladder.shard"; "ladder.shard_sim";
      "ladder.remote_sim"; "direct.validate"; "direct.issue_arbitrary"; "direct.revoke" ];
  print_newline ();
  (* Everything recorded, written out once at the end. *)
  (try Unix.mkdir data_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let out = Filename.concat data_root (Printf.sprintf "%s-seed%d.trace.json" name seed) in
  let oc = open_out out in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str name);
            ("seed", J.Int seed);
            ("layers", metrics_json layers);
            ( "bench_trace",
              match J.parse (Trace.to_json bench_trace) with Ok j -> j | Error e -> J.Str e );
          ]));
  output_string oc "\n";
  close_out oc;
  Printf.printf "  layer table and bench spans written to %s\n" out;
  let dropped = find "trace.dropped" layers in
  let lost_spans = Float.is_finite dropped && dropped > 0.0 in
  let notes =
    List.rev r0.audit.notes @ List.rev r1.audit.notes
    @ if lost_spans then [ "program tracer dropped spans" ] else []
  in
  let failed = r0.audit.failed + r1.audit.failed + if lost_spans then 1 else 0 in
  let gated =
    List.map
      (fun n ->
        match List.find_opt (fun (n', _, _) -> n' = n) layers with
        | Some m -> m
        | None -> (n, Float.nan, ""))
      per_layer
  in
  finish ~attempted:(r0.audit.attempted + r1.audit.attempted) ~failed ~notes ~gated

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let member k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let names_in j k =
  match member k j with
  | Some (J.Arr l) ->
      List.filter_map (fun o -> match member "name" o with Some (J.Str n) -> Some n | _ -> None) l
  | _ -> []

(* Two rounds of one seed agree exactly, tracing changes nothing, another
   seed changes the op stream, and every audit passes.  BENCHMARK.json and
   perfbench/metrics.json name exactly what the program reports. *)
let self_test () =
  let ok = ref true in
  let say ok' fmt =
    Printf.ksprintf
      (fun s ->
        if not ok' then ok := false;
        Printf.printf "  %s %s\n" (if ok' then "ok  " else "FAIL") s)
      fmt
  in
  let bench = read_json "BENCHMARK.json" and registry = read_json "perfbench/metrics.json" in
  let registered n = match member "metrics" registry with Some m -> member n m <> None | None -> false in
  let unregistered names = List.filter (fun n -> not (registered n)) names in
  say (names_in bench "workloads" = workloads) "BENCHMARK.json lists the workloads";
  say (names_in bench "end_to_end" = end_to_end) "BENCHMARK.json lists the end-to-end metrics";
  say (names_in bench "per_layer" = per_layer) "BENCHMARK.json lists the per-layer metrics";
  say (unregistered (end_to_end @ per_layer) = []) "metrics.json registers every gated metric";
  List.iter
    (fun name ->
      let run seed traced round_ix = round_of small name ~seed ~traced ~round_ix in
      let a = run 11 false 0 and b = run 11 false 1 in
      let c = run 12 false 2 in
      let _, _, layers = traced_layers small name ~seed:13 in
      let printed = List.map (fun (n, _, _) -> n) (a.extras @ layers) in
      say (unregistered printed = []) "%s: metrics.json registers every printed metric%s" name
        (String.concat "" (List.map (( ^ ) " ") (unregistered printed)));
      say
        (List.for_all (fun n -> List.mem n printed) per_layer)
        "%s: the traced run measures every per-layer metric" name;
      let clean r = r.audit.failed = 0 in
      let notes = List.concat_map (fun r -> List.rev r.audit.notes) [ a; b; c ] in
      say (clean a && clean b && clean c) "%s: audits pass on seeds 11 and 12%s" name
        (String.concat "" (List.map (( ^ ) "; ") notes));
      if sim name then begin
        let t = run 11 true 3 in
        let det r = r.det ^ " " ^ r.audit_det in
        say (det a = det b) "%s: same seed, same counts and virtual times (%s)" name (det a);
        say (det a = det t) "%s: tracing leaves counts and virtual times unchanged" name;
        say (det a <> det c) "%s: another seed changes the op stream (%s)" name (det c)
      end
      else say (not (Sys.file_exists (Filename.concat (Lazy.force run_dir) "round-0")))
             "%s: round data directories are removed" name)
    workloads;
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--self-test", Arg.Set self, " check determinism and audits at small sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ()
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end
  else
    try
      if !trace = 1 then traced_run full !workload ~seed:!seed
      else e2e_run full !workload ~seed:!seed ~seconds:!seconds
    with e ->
      (* A workload that could not run is a failed run, with a result line. *)
      Printf.printf "  AUDIT FAILURE: %s\n" (Printexc.to_string e);
      print_endline {|{"correct":false,"attempted":1,"failed":1,"metrics":{}}|};
      exit 1
