(** Witness → scenario compiler: executable evidence for the symbolic
    escalation prover.

    [Oasis_core.Federation_lint] proves escalation chains symbolically; this
    module compiles each {!Oasis_core.Federation_lint.witness} into a
    declarative {!Scenario.t} — issue the holder (and the chain's
    independent obligations) via the §4.12 bootstrap, walk the chain hop by
    hop through the real role-entry engine (including §4.4 elections for
    hops with elector obligations), assert the target validates, then fire
    the holder and assert the OASIS006 verdict dynamically: a carried chain
    must see the target revoked, a revocation-blind chain must see it
    survive.  Run under {!Explore.explore}, every statically reported path
    becomes replayable evidence, and a static/dynamic disagreement is a bug
    by definition. *)

module FL = Oasis_core.Federation_lint
module Service = Oasis_core.Service
module Group = Oasis_core.Group
module Ast = Oasis_rdl.Ast
module Analyze = Oasis_rdl.Analyze
module Pretty = Oasis_rdl.Pretty
module Ty = Oasis_rdl.Ty
module V = Oasis_rdl.Value

let walker = "mallory"

exception Not_compilable of string

let key (svc, role) = svc ^ "." ^ role

(* Positive-polarity atom collectors over a hop constraint. *)
let rec fold_atoms pol f acc = function
  | Ast.Cand (a, b) | Ast.Cor (a, b) -> fold_atoms pol f (fold_atoms pol f acc a) b
  | Ast.Cnot c -> fold_atoms (not pol) f acc c
  | Ast.Cstar c -> fold_atoms pol f acc c
  | (Ast.Crel _ | Ast.Cin _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _) as atom ->
      f pol acc atom

let pos_ins c =
  fold_atoms true
    (fun pol acc a -> match a with Ast.Cin (e, g) when pol -> (e, g) :: acc | _ -> acc)
    [] c

let pos_var_eqs c =
  fold_atoms true
    (fun pol acc a ->
      match a with
      | Ast.Crel (Ast.Eq, Ast.Evar x, Ast.Evar y) when pol -> (x, y) :: acc
      | _ -> acc)
    [] c

let expr_has_call = function
  | Ast.Elit _ | Ast.Evar _ -> false
  | Ast.Ecall _ -> true

let constr_has_call c =
  fold_atoms true
    (fun _ acc a ->
      acc
      ||
      match a with
      | Ast.Ccall _ -> true
      | Ast.Crel (_, x, y) | Ast.Csubset (x, y) -> expr_has_call x || expr_has_call y
      | Ast.Cin (e, _) -> expr_has_call e
      | Ast.Cbind (_, e) -> expr_has_call e
      | _ -> false)
    false c

(* The compiled scenario's moving parts, exposed for reporting. *)
type plan = {
  pl_scenario : Scenario.t;
  pl_target_key : string;
  pl_expect_revoked : bool;  (** dynamic OASIS006 verdict: carried chains cascade *)
}

let compile ~fed (w : FL.witness) : (plan, string) result =
  try
    let members = FL.members fed in
    let known = List.map (fun m -> m.FL.fl_name) members in
    let require_member what n =
      if not (List.mem (fst n) known) then
        raise
          (Not_compilable
             (Printf.sprintf "%s %s is outside the federation" what (FL.node_str n)))
    in
    require_member "holder" w.FL.w_holder;
    List.iter
      (fun (h : FL.hop) ->
        (match h.FL.h_constr with
        | Some c when constr_has_call c ->
            raise
              (Not_compilable
                 (Printf.sprintf "hop %s uses an extension function" (FL.node_str h.FL.h_node)))
        | _ -> ());
        List.iter (fun (n, _, _) -> require_member "obligation" n) h.FL.h_obligations;
        Option.iter
          (fun (n, _) ->
            require_member "elector" n;
            if fst n <> fst h.FL.h_node then
              raise
                (Not_compilable
                   (Printf.sprintf "elector %s is not local to %s (the engine only \
                                    delegates local elector roles)"
                      (FL.node_str n) (fst h.FL.h_node))))
          h.FL.h_elector)
      w.FL.w_hops;

    (* Type hints: integer-typed symbolic variables default to Int 0. *)
    let hints : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let note_args node exprs =
      match FL.signature fed node with
      | None -> ()
      | Some tys ->
          List.iteri
            (fun i e ->
              match (e, List.nth_opt tys i) with
              | Ast.Evar v, Some ty -> (
                  match Ty.repr ty with Ty.Int -> Hashtbl.replace hints v () | _ -> ())
              | _ -> ())
            exprs
    in
    note_args w.FL.w_holder w.FL.w_holder_args;
    List.iter
      (fun (h : FL.hop) ->
        note_args h.FL.h_node h.FL.h_args;
        Option.iter (fun (n, args) -> note_args n args) h.FL.h_elector;
        List.iter (fun (n, args, _) -> note_args n args) h.FL.h_obligations)
      w.FL.w_hops;
    let default v = if Hashtbl.mem hints v then V.Int 0 else V.Str ("w_" ^ v) in

    (* A concrete model of the path constraint. *)
    let assignment =
      match w.FL.w_constr with
      | None -> []
      | Some c -> (
          match Analyze.model ~default c with
          | Some (bindings, _) -> bindings
          | None -> raise (Not_compilable "path constraint has no extractable model"))
    in
    let vals : (string, V.t) Hashtbl.t = Hashtbl.create 16 in
    let value_of v =
      match Hashtbl.find_opt vals v with
      | Some x -> x
      | None ->
          let x = match List.assoc_opt v assignment with Some x -> x | None -> default v in
          Hashtbl.replace vals v x;
          x
    in
    (* Var-var equalities are opaque to the model extractor; propagate them
       over unpinned (default-valued) variables. *)
    (match w.FL.w_constr with
    | None -> ()
    | Some c ->
        let eqs = pos_var_eqs c in
        for _pass = 1 to 2 do
          List.iter
            (fun (a, b) ->
              let va = value_of a and vb = value_of b in
              if not (V.equal va vb) then
                if V.equal vb (default b) then Hashtbl.replace vals b va
                else if V.equal va (default a) then Hashtbl.replace vals a vb)
            eqs
        done);
    let eval_expr = function
      | Ast.Elit v -> v
      | Ast.Evar v -> value_of v
      | Ast.Ecall _ -> raise (Not_compilable "extension call in a symbolic argument")
    in

    (* Group memberships the chain's constraints positively require, per
       hop service. *)
    let group_seeds =
      List.concat_map
        (fun (h : FL.hop) ->
          match h.FL.h_constr with
          | None -> []
          | Some c ->
              List.map (fun (e, g) -> (fst h.FL.h_node, g, eval_expr e)) (pos_ins c))
        w.FL.w_hops
    in

    (* Colluding electors: one principal per distinct elector node. *)
    let electors =
      let seen : (FL.node, string) Hashtbl.t = Hashtbl.create 4 in
      List.iteri
        (fun i (h : FL.hop) ->
          match h.FL.h_elector with
          | Some (n, _) when not (Hashtbl.mem seen n) ->
              Hashtbl.replace seen n (Printf.sprintf "elector%d" (i + 1))
          | _ -> ())
        w.FL.w_hops;
      seen
    in
    let elector_name n = Hashtbl.find electors n in
    let elector_issues =
      (* newest distinct (node, args, principal) rows for setup *)
      let seen : (FL.node, unit) Hashtbl.t = Hashtbl.create 4 in
      List.filter_map
        (fun (h : FL.hop) ->
          match h.FL.h_elector with
          | Some (n, args) when not (Hashtbl.mem seen n) ->
              Hashtbl.replace seen n ();
              Some (n, args, elector_name n)
          | _ -> None)
        w.FL.w_hops
    in

    let services =
      List.map (fun m -> Scenario.svc m.FL.fl_name (Pretty.to_string m.FL.fl_rolefile)) members
    in
    let principals =
      walker :: List.sort_uniq compare (Hashtbl.fold (fun _ p acc -> p :: acc) electors [])
    in

    let find_service world svc =
      match List.assoc_opt svc world.Scenario.w_services with
      | Some s -> s
      | None -> failwith ("witness scenario: no service " ^ svc)
    in
    let principal world name = Hashtbl.find world.Scenario.w_principals name in
    let mark world label v = Hashtbl.replace world.Scenario.w_marks label v in

    (* Wallet slots.  Distinct obligations can name the same role
       ([Member(p)* /\ Member(q)*]), and a bootstrap obligation on the
       target role would mask the chain-entered certificate under the
       ["Svc.Role"] key the outcome checker reads — so every chain-internal
       certificate lives under its own slot key, and only the final hop's
       certificate is stored under the plain target key. *)
    let n_hops = List.length w.FL.w_hops in
    let holder_slot = "slot:holder" in
    let ob_slot i j = Printf.sprintf "slot:ob:%d:%d" i j in
    let hop_slot i = if i = n_hops - 1 then key w.FL.w_target else Printf.sprintf "slot:hop:%d" i in

    (* Setup: issue every independent obligation, the electors' roles, and
       the holder, through the §4.12 bootstrap. *)
    let setup world =
      let issue p slot n args =
        let cert =
          Service.issue_arbitrary (find_service world (fst n)) ~client:p.Scenario.p_vci
            ~roles:[ snd n ] ~args
        in
        p.Scenario.p_certs <- (slot, cert) :: p.Scenario.p_certs
      in
      let m = principal world walker in
      List.iteri
        (fun i (h : FL.hop) ->
          List.iteri
            (fun j (n, args, _) -> issue m (ob_slot i j) n (List.map eval_expr args))
            h.FL.h_obligations)
        w.FL.w_hops;
      List.iter
        (fun (n, args, who) -> issue (principal world who) (key n) n (List.map eval_expr args))
        elector_issues;
      issue m holder_slot w.FL.w_holder (List.map eval_expr w.FL.w_holder_args);
      mark world "setup" "ok"
    in

    (* One action per hop; elections need the two-step delegation dance. *)
    let hop_action i (h : FL.hop) =
      let label = Printf.sprintf "hop%d-%s" i (snd h.FL.h_node) in
      let via_slot = if i = 0 then holder_slot else hop_slot (i - 1) in
      let use =
        via_slot :: List.mapi (fun j _ -> ob_slot i j) h.FL.h_obligations
      in
      let enter world ?delegation () =
        let m = principal world walker in
        let creds = List.filter_map (fun k -> List.assoc_opt k m.Scenario.p_certs) use in
        (* Request the hop's concrete head arguments: an obligation on the
           same role (e.g. the sponsors in [Member(p)* /\ Member(q)*]) must
           not satisfy the request by itself — the witness claims the
           statement fires. *)
        Service.request_entry
          (find_service world (fst h.FL.h_node))
          ~client_host:world.Scenario.w_client_host ~client:m.Scenario.p_vci
          ~role:(snd h.FL.h_node)
          ~args:(List.map eval_expr h.FL.h_args)
          ~creds ?delegation (function
          | Ok cert ->
              m.Scenario.p_certs <- (hop_slot i, cert) :: m.Scenario.p_certs;
              mark world label "ok"
          | Error e -> mark world label ("err:" ^ e))
      in
      let act world =
        match h.FL.h_elector with
        | None -> enter world ()
        | Some (en, _) -> (
            let colluder = principal world (elector_name en) in
            match List.assoc_opt (key en) colluder.Scenario.p_certs with
            | None -> mark world label "err:no elector credential"
            | Some using ->
                Service.request_delegation
                  (find_service world (fst h.FL.h_node))
                  ~client_host:world.Scenario.w_client_host
                  ~delegator:colluder.Scenario.p_vci ~using ~role:(snd h.FL.h_node)
                  ~required:[] (function
                  | Error e -> mark world label ("err:delegation " ^ e)
                  | Ok (d, _) -> enter world ~delegation:d ()))
      in
      Scenario.step ~at:(0.5 +. (0.4 *. float_of_int i)) label (Scenario.Act act)
    in
    let t_fire = 0.5 +. (0.4 *. float_of_int n_hops) +. 0.4 in
    let target_key = key w.FL.w_target in

    let probe world =
      let m = principal world walker in
      (match List.assoc_opt target_key m.Scenario.p_certs with
      | None -> Hashtbl.replace world.Scenario.w_box "witness" "absent"
      | Some cert -> (
          match
            Service.validate (find_service world (fst w.FL.w_target)) ~client:m.Scenario.p_vci
              cert
          with
          | Ok () -> Hashtbl.replace world.Scenario.w_box "witness" "valid"
          | Error _ -> Hashtbl.replace world.Scenario.w_box "witness" "revoked"));
      mark world "probe" "ok"
    in
    let fire world =
      let m = principal world walker in
      match List.assoc_opt holder_slot m.Scenario.p_certs with
      | None -> mark world "fire" "err:no holder certificate"
      | Some cert ->
          Service.revoke_certificate (find_service world (fst w.FL.w_holder)) cert;
          mark world "fire" "ok"
    in

    let actions =
      Scenario.step ~at:0.1 "setup" (Scenario.Act setup)
      :: List.mapi hop_action w.FL.w_hops
      @ [
          Scenario.step ~at:(t_fire -. 0.1) "probe" (Scenario.Act probe);
          Scenario.step ~at:t_fire "fire" (Scenario.Act fire);
        ]
    in

    let expect_revoked = w.FL.w_carried in
    let scenario =
      {
        Scenario.sc_name =
          Printf.sprintf "witness:%s->%s" (FL.node_str w.FL.w_holder)
            (FL.node_str w.FL.w_target);
        sc_services = services;
        sc_principals = principals;
        sc_actions = actions;
        sc_expect =
          (fun ~done_ ->
            if done_ "fire" then
              [
                ( walker,
                  target_key,
                  if expect_revoked then Scenario.Revoked else Scenario.Valid );
              ]
            else [ (walker, target_key, Scenario.Valid) ]);
        sc_invariants =
          [
            Scenario.Converges;
            Scenario.Custom_final
              ( "witness-executes",
                fun world ->
                  match Hashtbl.find_opt world.Scenario.w_box "witness" with
                  | Some "valid" -> Ok ()
                  | Some other ->
                      Error
                        (Printf.sprintf "target %s was %s before the holder fired"
                           target_key other)
                  | None -> Error "probe never ran" );
          ];
        sc_horizon = t_fire +. 3.0;
        sc_window = (t_fire -. 0.05, t_fire +. 0.3);
        sc_latency = Oasis_sim.Net.Fixed 0.005;
        sc_seed = 7L;
        sc_custom =
          Some
            (fun world ->
              List.iter
                (fun (svc, g, v) -> Group.add (Service.group (find_service world svc) g) v)
                group_seeds);
      }
    in
    Ok { pl_scenario = scenario; pl_target_key = target_key; pl_expect_revoked = expect_revoked }
  with Not_compilable reason -> Error reason

(* ------------------------------------------------------------------ *)
(* Confirmation under the explorer.                                    *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Confirmed of { vf_runs : int; vf_exhaustive : bool }
  | Refuted of { vf_runs : int; vf_invariant : string; vf_detail : string }
  | Uncompilable of string

let default_params = { Explore.default_params with Explore.depth = 6; max_runs = 2_000 }

let confirm ?(params = default_params) ~fed w =
  match compile ~fed w with
  | Error reason -> Uncompilable reason
  | Ok plan -> (
      let report = Explore.explore plan.pl_scenario params in
      match report.Explore.rp_violations with
      | [] ->
          Confirmed
            { vf_runs = report.Explore.rp_runs; vf_exhaustive = report.Explore.rp_exhaustive }
      | cx :: _ ->
          Refuted
            {
              vf_runs = report.Explore.rp_runs;
              vf_invariant = cx.Explore.cx_invariant;
              vf_detail = cx.Explore.cx_detail;
            })

let verdict_str = function
  | Confirmed { vf_runs; vf_exhaustive } ->
      Printf.sprintf "confirmed (%d runs%s)" vf_runs (if vf_exhaustive then ", exhaustive" else "")
  | Refuted { vf_invariant; vf_detail; _ } ->
      Printf.sprintf "REFUTED [%s]: %s" vf_invariant vf_detail
  | Uncompilable reason -> Printf.sprintf "not executable (%s)" reason
