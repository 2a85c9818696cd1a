(* Randomized credential-record DAG suite (§4.6–4.8).

   A seeded generator builds random DAGs (random depth, fan-out, operators
   and negated parent edges) and drives them through arbitrary interleavings
   of leaf flips, revocations, edge attachment, permanence and GC sweeps.
   After every operation the implementation is audited against a pure model
   evaluator:

   - {!Credrec.self_check}: edge/back-index symmetry, counter sums, state
     consistency with counters (no dangling child refs);
   - every live record's state equals the model's three-valued evaluation;
   - a cascade fires change hooks on a subset of the dependent set that
     covers every record whose settled state changed (the cascade reaches
     exactly the dependent set, up to transient glitches inside it);
   - replaying a seed reproduces the identical final state vector.

   A second, service-level half replays random revoke/crash interleavings
   against two identically-seeded worlds — one with batched (heartbeat
   coalesced) notifications, one with per-event notifications — and checks
   that both converge to identical validation outcomes. *)

module Credrec = Oasis_core.Credrec
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Principal = Oasis_core.Principal
module Engine = Oasis_sim.Engine
module Net = Oasis_sim.Net
module Prng = Oasis_util.Prng
module V = Oasis_rdl.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* The pure model                                                      *)
(* ------------------------------------------------------------------ *)

(* A model edge remembers the parent's node id, the negation mark and
   whether the parent was already dead when the edge was added (a dead
   parent contributes a frozen False, §4.8's dangling-reference rule). *)
type medge = { pid : int; neg : bool; frozen_false : bool }

type mnode = {
  id : int;
  cref : Credrec.cref;
  is_leaf : bool;
  mop : Credrec.op;
  mutable leaf_st : Credrec.state;
  mutable parents : medge list;
  (* [Some s]: the node is frozen at [s] forever (explicit permanence,
     revocation, or observed initial pin).  GC-forced permanence is not
     tracked: a forced value is dominated by a pinned forcing input, so the
     plain evaluation below stays correct. *)
  mutable pinned : Credrec.state option;
  hooked : bool;
  mutable fired : int;
}

let seen neg s =
  if not neg then s
  else match s with Credrec.True -> Credrec.False | Credrec.False -> Credrec.True | u -> u

(* Mirrors [Credrec.computed_state]: counter logic over the inputs, with
   output inversion for Nand/Nor. *)
let comb_eval op inputs =
  let base =
    match op with
    | Credrec.And | Credrec.Nand ->
        if List.mem Credrec.False inputs then Credrec.False
        else if List.mem Credrec.Unknown inputs then Credrec.Unknown
        else Credrec.True
    | Credrec.Or | Credrec.Nor ->
        if List.mem Credrec.True inputs then Credrec.True
        else if List.mem Credrec.Unknown inputs then Credrec.Unknown
        else Credrec.False
  in
  match op with Credrec.And | Credrec.Or -> base | Credrec.Nand | Credrec.Nor -> seen true base

let rec meval nodes id =
  let n = nodes.(id) in
  match n.pinned with
  | Some s -> s
  | None ->
      if n.is_leaf then n.leaf_st
      else
        comb_eval n.mop
          (List.map
             (fun e -> seen e.neg (if e.frozen_false then Credrec.False else meval nodes e.pid))
             n.parents)

(* Transitive dependent set of [src] over the model adjacency (frozen edges
   never propagate), including [src] itself. *)
let descendants nodes src =
  let n = Array.length nodes in
  let inset = Array.make n false in
  inset.(src) <- true;
  let again = ref true in
  while !again do
    again := false;
    Array.iter
      (fun nd ->
        if not inset.(nd.id) then
          if
            List.exists (fun e -> (not e.frozen_false) && inset.(e.pid)) nd.parents
          then begin
            inset.(nd.id) <- true;
            again := true
          end)
      nodes
  done;
  inset

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let ops_arr = [| Credrec.And; Credrec.Or; Credrec.Nand; Credrec.Nor |]
let states_arr = [| Credrec.True; Credrec.False; Credrec.Unknown |]

let build_graph rng t =
  let n_leaves = 4 + Prng.int rng 6 in
  let n_combs = 6 + Prng.int rng 10 in
  let nodes = ref [] in
  let k = ref 0 in
  for _ = 1 to n_leaves do
    let st = Prng.pick rng states_arr in
    let r = Credrec.leaf t ~state:st () in
    nodes :=
      { id = !k; cref = r; is_leaf = true; mop = Credrec.And; leaf_st = st; parents = [];
        pinned = None; hooked = Prng.bool rng; fired = 0 }
      :: !nodes;
    incr k
  done;
  for _ = 1 to n_combs do
    let mop = Prng.pick rng ops_arr in
    let nparents = 1 + Prng.int rng 3 in
    let parents =
      List.init nparents (fun _ ->
          { pid = Prng.int rng !k; neg = Prng.bool rng; frozen_false = false })
    in
    let r =
      Credrec.combine_fresh t ~op:mop
        (List.map (fun e -> ((List.nth !nodes (!k - 1 - e.pid)).cref, e.neg)) parents)
    in
    nodes :=
      { id = !k; cref = r; is_leaf = false; mop; leaf_st = Credrec.True; parents;
        pinned = None; hooked = Prng.bool rng; fired = 0 }
      :: !nodes;
    incr k
  done;
  let arr = Array.of_list (List.rev !nodes) in
  Array.iter
    (fun nd ->
      Credrec.set_direct_use t nd.cref (Prng.bool rng);
      if nd.hooked then Credrec.on_change t nd.cref (fun _ -> nd.fired <- nd.fired + 1))
    arr;
  arr

let check_states t nodes ctx =
  (match Credrec.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: self_check: %s" ctx e);
  Array.iter
    (fun nd ->
      if Credrec.live t nd.cref then
        let want = meval nodes nd.id in
        let got = Credrec.state t nd.cref in
        if got <> want then
          Alcotest.failf "%s: node %d: impl %a, model %a" ctx nd.id Credrec.pp_state got
            Credrec.pp_state want)
    nodes

(* One random operation, mirrored on implementation and model.  Returns the
   source node id when the op is a direct state change (so the caller can
   check the fired set against the dependent set). *)
let random_op rng t nodes =
  let pick_node () = nodes.(Prng.int rng (Array.length nodes)) in
  match Prng.int rng 100 with
  | x when x < 35 -> (
      (* flip a leaf *)
      let nd = pick_node () in
      if nd.is_leaf && Credrec.live t nd.cref then begin
        let st = Prng.pick rng states_arr in
        Credrec.set_leaf t nd.cref st;
        match nd.pinned with
        | Some _ -> None (* permanent: implementation ignores it too *)
        | None ->
            let changed = nd.leaf_st <> st in
            nd.leaf_st <- st;
            if changed then Some nd.id else None
      end
      else None)
  | x when x < 45 ->
      (* revoke *)
      let nd = pick_node () in
      if Credrec.live t nd.cref && not (Credrec.is_permanent t nd.cref) then begin
        Credrec.invalidate t nd.cref;
        nd.pinned <- Some Credrec.False;
        Some nd.id
      end
      else None
  | x when x < 65 ->
      (* attach an extra parent to a combining record; keep the DAG by only
         wiring lower ids into higher ones *)
      let child = pick_node () in
      if (not child.is_leaf) && Credrec.live t child.cref && child.id > 0 then begin
        let parent = nodes.(Prng.int rng child.id) in
        let neg = Prng.bool rng in
        Credrec.add_parent t ~child:child.cref ~negated:neg parent.cref;
        child.parents <-
          { pid = parent.id; neg; frozen_false = not (Credrec.live t parent.cref) }
          :: child.parents
      end;
      None
  | x when x < 75 ->
      (* freeze at the current value (skip Unknown: baking a frozen Unknown
         input is not meaningful — permanence in OASIS freezes settled
         beliefs) *)
      let nd = pick_node () in
      if Credrec.live t nd.cref && not (Credrec.is_permanent t nd.cref) then begin
        let st = Credrec.state t nd.cref in
        if st <> Credrec.Unknown then begin
          Credrec.make_permanent t nd.cref;
          nd.pinned <- Some st
        end
      end;
      None
  | x when x < 85 ->
      let nd = pick_node () in
      if Credrec.live t nd.cref then Credrec.set_direct_use t nd.cref (Prng.bool rng);
      None
  | _ ->
      ignore (Credrec.gc_sweep t);
      None

let run_case seed =
  let rng = Prng.create (Int64.of_int (0x5eed0000 + seed)) in
  let t = Credrec.create_table () in
  let nodes = build_graph rng t in
  check_states t nodes (Printf.sprintf "seed %d: after build" seed);
  let n_ops = 30 + Prng.int rng 20 in
  for opi = 1 to n_ops do
    Array.iter (fun nd -> nd.fired <- 0) nodes;
    let live_before =
      Array.map (fun nd -> if Credrec.live t nd.cref then Some (meval nodes nd.id) else None) nodes
    in
    let source = random_op rng t nodes in
    let ctx = Printf.sprintf "seed %d: op %d" seed opi in
    check_states t nodes ctx;
    (* Cascade coverage: on a direct state change, hooks must have fired on
       every hooked dependent whose settled state changed, and only inside
       the dependent set. *)
    match source with
    | None -> ()
    | Some src ->
        let dep = descendants nodes src in
        Array.iteri
          (fun i nd ->
            if nd.fired > 0 && not dep.(i) then
              Alcotest.failf "%s: hook fired outside the dependent set (node %d)" ctx i;
            match live_before.(i) with
            | Some before
              when nd.hooked && Credrec.live t nd.cref && meval nodes i <> before
                   && nd.fired = 0 ->
                Alcotest.failf "%s: node %d changed state but its hook never fired" ctx i
            | _ -> ())
          nodes
  done;
  (* Final state vector for replay comparison. *)
  Array.map
    (fun nd -> if Credrec.live t nd.cref then Some (Credrec.state t nd.cref) else None)
    nodes

let test_randomized_dags () =
  for seed = 0 to 219 do
    let v1 = run_case seed in
    (* Replay-identical per seed. *)
    let v2 = run_case seed in
    if v1 <> v2 then Alcotest.failf "seed %d: replay diverged" seed
  done

(* ------------------------------------------------------------------ *)
(* Cascade shape: each record recomputed once per settled change        *)
(* ------------------------------------------------------------------ *)

(* A stack of diamonds: root -> (a_i, b_i) -> join_i -> (a_{i+1}, ...).
   Flipping the root must fire each join's hook exactly once — the
   generation-stamped worklist recomputes each record with settled
   counters instead of once per path (2^depth paths here). *)
let test_diamond_visits_once () =
  let t = Credrec.create_table () in
  let root = Credrec.leaf t () in
  let depth = 12 in
  let fires = Array.make depth 0 in
  let top = ref root in
  for i = 0 to depth - 1 do
    let a = Credrec.combine_fresh t [ (!top, false) ] in
    let b = Credrec.combine_fresh t [ (!top, false) ] in
    let join = Credrec.combine_fresh t [ (a, false); (b, false) ] in
    Credrec.on_change t join (fun _ -> fires.(i) <- fires.(i) + 1);
    top := join
  done;
  let ops_before = Credrec.edge_ops t in
  Credrec.set_leaf t root Credrec.False;
  checkb "cascade reached the sink" true (Credrec.state t !top = Credrec.False);
  Array.iteri (fun i n -> checki (Printf.sprintf "join %d fired once" i) 1 n) fires;
  (* 3 edges per diamond plus the root fan-out: strictly linear in depth. *)
  checkb "edge work linear in depth" true (Credrec.edge_ops t - ops_before <= 4 * depth)

(* ------------------------------------------------------------------ *)
(* O(1) detach under GC (the old code rebuilt the child list per death)  *)
(* ------------------------------------------------------------------ *)

let test_detach_is_constant_time () =
  let t = Credrec.create_table () in
  let parent = Credrec.leaf t () in
  let n = 10_000 in
  let kids =
    Array.init n (fun _ ->
        let c = Credrec.combine_fresh t [ (parent, false) ] in
        Credrec.set_direct_use t c true;
        c)
  in
  checki "all edges attached" n (Credrec.children_count t parent);
  (* Retire the first 2000 children one sweep at a time: each death must
     cost O(1) edge operations, not a rebuild of the 10k-entry child set. *)
  let singles = 2000 in
  let ops0 = Credrec.edge_ops t in
  for i = 0 to singles - 1 do
    Credrec.set_direct_use t kids.(i) false;
    checki (Printf.sprintf "sweep %d reclaims one" i) 1 (Credrec.gc_sweep t)
  done;
  let spent = Credrec.edge_ops t - ops0 in
  checkb
    (Printf.sprintf "detach cost linear in deaths (%d ops for %d deaths)" spent singles)
    true
    (spent < 50 * singles);
  checki "survivors still attached" (n - singles) (Credrec.children_count t parent);
  (* Bulk death: one sweep reclaims all remaining children... *)
  for i = singles to n - 1 do
    Credrec.set_direct_use t kids.(i) false
  done;
  checki "bulk sweep reclaims the rest" (n - singles) (Credrec.gc_sweep t);
  checki "parent now childless" 0 (Credrec.children_count t parent);
  (* ...and the parent itself goes on the next sweep (candidates are decided
     before frees — the paper's iterated-sweep settling). *)
  Credrec.set_direct_use t parent false;
  checki "parent collected next sweep" 1 (Credrec.gc_sweep t);
  checki "table empty" 0 (Credrec.live_records t);
  match Credrec.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self_check after churn: %s" e

(* ------------------------------------------------------------------ *)
(* Service level: batched and per-event notification are equivalent     *)
(* ------------------------------------------------------------------ *)

let login_rolefile = {|
def LoggedOn(u, h) u: String h: String
LoggedOn(u, h) <-
|}

let fresh_vci =
  let host = Principal.Host.create "credgraphclient" in
  let domain = Principal.Host.boot_domain host in
  fun () -> Principal.Host.new_vci host domain

type fault_op = Revoke of int | Crash | Restart | Wait of float

(* Pre-draw the schedule so both worlds replay the identical interleaving. *)
let draw_schedule rng ~users =
  List.init
    (4 + Prng.int rng 5)
    (fun _ ->
      match Prng.int rng 10 with
      | x when x < 4 -> Revoke (Prng.int rng users)
      | x when x < 6 -> Crash
      | x when x < 8 -> Restart
      | _ -> Wait (0.2 +. Prng.float rng 1.8))

(* Build a Login+Conf world, enter [users] memberships, replay [schedule]
   (crashes hit the issuing service's host only), heal, settle, and return
   the per-user validation outcome vector. *)
let interleaving_outcomes ~batch ~seed schedule users =
  let engine = Engine.create () in
  let net = Net.create ~seed ~latency:(Net.Fixed 0.005) engine in
  let reg = Service.create_registry () in
  let client_host = Net.add_host net "client" in
  let mk name rolefile =
    let host = Net.add_host net ("h." ^ name) in
    match
      Service.create net host reg ~name ~rolefile ~batch_notifications:batch ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "service %s: %s" name e
  in
  let login = mk "Login" login_rolefile in
  let conf = mk "Conf" {|
Member(u) <- Login.LoggedOn(u, h)* : (u in staff)*
|} in
  let staff = Service.group conf "staff" in
  let run dt = Engine.run ~until:(Engine.now engine +. dt) engine in
  let clients = Array.init users (fun _ -> fresh_vci ()) in
  let login_certs =
    Array.mapi
      (fun i u ->
        Group.add staff (V.Str u);
        Service.issue_arbitrary login ~client:clients.(i) ~roles:[ "LoggedOn" ]
          ~args:[ V.Str u; V.Str "ely" ])
      (Array.init users (fun i -> Printf.sprintf "u%d" i))
  in
  let members = Array.make users None in
  Array.iteri
    (fun i _ ->
      Service.request_entry conf ~client_host ~client:clients.(i) ~role:"Member"
        ~creds:[ login_certs.(i) ]
        (function Ok c -> members.(i) <- Some c | Error e -> Alcotest.failf "entry: %s" e))
    clients;
  run 3.0;
  let members = Array.map (function Some c -> c | None -> Alcotest.fail "entry hung") members in
  let down = ref false in
  List.iter
    (fun op ->
      match op with
      | Revoke i -> Service.revoke_certificate login login_certs.(i)
      | Crash ->
          if not !down then begin
            Net.crash_host net (Service.host login);
            down := true
          end
      | Restart ->
          if !down then begin
            Net.restart_host net (Service.host login);
            down := false
          end
      | Wait dt -> run dt)
    schedule;
  if !down then Net.restart_host net (Service.host login);
  run 10.0;
  Array.mapi (fun i m -> Service.validate conf ~client:clients.(i) m = Ok ()) members

let test_batched_equals_unbatched () =
  for seed = 0 to 24 do
    let rng = Prng.create (Int64.of_int (0xba7c4 + seed)) in
    let users = 4 + Prng.int rng 5 in
    let schedule = draw_schedule rng ~users in
    let revoked = Array.make users false in
    List.iter (function Revoke i -> revoked.(i) <- true | _ -> ()) schedule;
    let netseed = Int64.of_int (7000 + seed) in
    let batched = interleaving_outcomes ~batch:true ~seed:netseed schedule users in
    let unbatched = interleaving_outcomes ~batch:false ~seed:netseed schedule users in
    if batched <> unbatched then
      Alcotest.failf "seed %d: batched and unbatched final states diverge" seed;
    Array.iteri
      (fun i ok ->
        if ok <> not revoked.(i) then
          Alcotest.failf "seed %d: user %d converged to the wrong state" seed i)
      batched;
    (* Replay-identical per seed. *)
    if seed < 2 then begin
      let again = interleaving_outcomes ~batch:true ~seed:netseed schedule users in
      if again <> batched then Alcotest.failf "seed %d: batched replay diverged" seed
    end
  done

(* ------------------------------------------------------------------ *)
(* Recovery restores in marshalled-key order, not index order           *)
(* ------------------------------------------------------------------ *)

(* Service recovery restores persisted references sorted by their hex
   [index.magic] keys, so an early high index puts every lower index on the
   free list and later restores take slots out of it.  Fresh allocations
   afterwards must reuse only the gaps (never a restored identity), in
   the same order as restoring in index order would give. *)
let test_restore_in_key_order () =
  (* 20k persisted refs spread over five times as many slots, as in a
     table whose freed slots outnumber its live ones. *)
  let n = 20_000 and span = 100_000 in
  let gap i = i mod (span / n) <> 0 in
  let refs =
    List.init span (fun i -> { Credrec.index = i; magic = 1 + (i mod 3) })
    |> List.filter (fun (r : Credrec.cref) -> not (gap r.index))
  in
  let restore_all order =
    let t = Credrec.create_table () in
    List.iter (fun r -> checkb "restore honoured" true (Credrec.restore t r)) order;
    t
  in
  let by_key =
    List.map Credrec.marshal_ref refs
    |> List.sort String.compare
    |> List.filter_map Credrec.unmarshal_ref
  in
  let t = restore_all by_key in
  checki "every ref live" (List.length refs) (Credrec.live_records t);
  let gaps = span - n in
  let fresh = List.init (gaps + 10) (fun _ -> Credrec.leaf t ()) in
  let restored = Hashtbl.create n in
  List.iter (fun (r : Credrec.cref) -> Hashtbl.replace restored r.index ()) refs;
  checki "no fresh record takes a restored slot" 0
    (List.length (List.filter (fun (r : Credrec.cref) -> Hashtbl.mem restored r.index) fresh));
  checkb "the gaps are reused before the table grows" true
    (List.for_all
       (fun (r : Credrec.cref) -> gap r.index)
       (List.filteri (fun i _ -> i < gaps) fresh));
  checkb "restored refs still resolve" true (List.for_all (Credrec.live t) refs);
  (match Credrec.self_check t with Ok () -> () | Error m -> Alcotest.fail m);
  (* Index order has no stale free-list entries; key order must allocate
     the same identities regardless. *)
  let t' = restore_all refs in
  let fresh' = List.init (gaps + 10) (fun _ -> Credrec.leaf t' ()) in
  checkb "same allocation sequence as restoring in index order" true (fresh = fresh')

let () =
  Alcotest.run "credgraph"
    [
      ( "randomized",
        [
          Alcotest.test_case "220 seeded DAG interleavings" `Quick test_randomized_dags;
          Alcotest.test_case "batched = unbatched under faults (25 seeds)" `Quick
            test_batched_equals_unbatched;
        ] );
      ( "asymptotics",
        [
          Alcotest.test_case "restore 20k refs in key order, then allocate" `Quick
            test_restore_in_key_order;
          Alcotest.test_case "diamond cascade visits once" `Quick test_diamond_visits_once;
          Alcotest.test_case "O(1) detach at 10k children" `Quick test_detach_is_constant_time;
        ] );
    ]
