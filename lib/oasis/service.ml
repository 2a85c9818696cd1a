module Value = Oasis_rdl.Value
module Ast = Oasis_rdl.Ast
module Eval = Oasis_rdl.Eval
module Parser = Oasis_rdl.Parser
module Infer = Oasis_rdl.Infer
module Analyze = Oasis_rdl.Analyze
module Bitset = Oasis_util.Bitset
module Signing = Oasis_util.Signing
module Prng = Oasis_util.Prng
module Cache = Oasis_util.Cache
module Pretty = Oasis_rdl.Pretty
module Stats = Oasis_sim.Stats
module Trace = Oasis_sim.Trace
module Net = Oasis_sim.Net
module Engine = Oasis_sim.Engine
module Clock = Oasis_sim.Clock
module Broker = Oasis_events.Broker
module Event = Oasis_events.Event
module Disk = Oasis_store.Disk
module Journal = Oasis_store.Journal
module Hex = Oasis_util.Hex

type value = Value.t

type failure =
  | Wrong_client
  | Forged
  | Wrong_context
  | Insufficient
  | Revoked
  | Unknown_state

let pp_failure ppf f =
  Format.pp_print_string ppf
    (match f with
    | Wrong_client -> "wrong-client"
    | Forged -> "forged"
    | Wrong_context -> "wrong-context"
    | Insufficient -> "insufficient-rights"
    | Revoked -> "revoked"
    | Unknown_state -> "unknown-state")

type audit_kind = Fraud | Erroneous | Revocation_denied | Entry | Delegation | Revocation | Exit

type audit_entry = { at : float; kind : audit_kind; detail : string }

(* A peer link: the local face of another service (fig 4.8): one broker
   session plus the external records mirroring that peer's credential
   records. *)
type peer_link = {
  pl_peer : string;
  mutable pl_session : Broker.session option;
  mutable pl_connecting : bool;
  mutable pl_queued : (Broker.session -> unit) list;
  pl_externals : (string, Credrec.cref) Hashtbl.t;  (* remote ref -> local surrogate *)
  mutable pl_batch_reg : bool;  (* ModifiedBatch registration installed *)
  pl_reread_pending : (string, unit) Hashtbl.t;  (* keys awaiting post-heal reread *)
  mutable pl_rereading : bool;  (* a batched reread is in flight / scheduled *)
  mutable pl_bound_host : string;
      (* host the live session's broker runs on; when the peer's registry
         entry moves to another host (replica failover, see {!Replica}) the
         stale session can never heal and the link must rebind *)
  mutable pl_retargeting : bool;  (* a stale-session registry watch is scheduled *)
}

(* A compiled residual membership rule (§4.7): either a constant or a
   credential record seen through an optional negation. *)
type compiled = Const of bool | Ref of Credrec.cref * bool  (* negated *)

(* --- durable-state plane (§4.11 databases + issued memberships) ---

   With [~disk] the service journals the facts it promises to remember
   across failures — §4.11's hire/fire databases (the blacklist) and the
   certificates it has issued — to a write-ahead log on simulated stable
   storage, checkpointed by snapshots.  What a certificate's validity
   {e depends on} is recorded as a small dependency list so recovery can
   re-materialise the credential-record subgraph backing issued
   certificates; delegation ties and group-derived residuals are NOT
   persisted (a recovered record that depended on them reads the dangling
   reference as permanently False — fail closed, per the reference-magic
   convention). *)

type dep =
  | Dext of string * string  (* issuing peer service, remote record key *)
  | Dloc of string  (* key of a local record (itself issued/durable) *)

type issued = {
  mutable i_alive : bool;  (* False once explicitly invalidated *)
  i_deps : dep list;
  i_rbrs : (string * string * string) list;
      (* (role, marshalled args, revoker role): §4.11 revocation arms to
         re-create on recovery *)
}

type durable = {
  du_journal : Journal.t;
  du_issued : (string, issued) Hashtbl.t;  (* marshalled local ref -> record *)
}

type t = {
  sv_net : Net.t;
  sv_host : Net.host;
  sv_registry : registry;
  sv_name : string;
  sv_rolefile_id : string;
  sv_rolefile : Ast.rolefile;
  sv_sigs : Infer.result;
  sv_role_bits : (string * int) list;
  sv_secrets : Signing.Rolling.t;
  sv_compound : bool;
  sv_fixpoint : bool;
  sv_table : Credrec.table;
  sv_groups : (string, Group.t) Hashtbl.t;
  sv_funcs : (string * (value list -> (value, string) result)) list;
  sv_broker : Broker.server;
  sv_peers : (string, peer_link) Hashtbl.t;
  sv_notifying : (string, unit) Hashtbl.t;  (* local refs armed for Modified events *)
  sv_family : (string, unit) Hashtbl.t;
      (* sibling shards of the same logical service (see {!Shard}): their
         names satisfy unqualified rolefile references, their certificates
         are accepted as revoker credentials after validation at the
         issuing sibling.  Empty for an unsharded service. *)
  (* role-based revocation state (§4.11) *)
  sv_rbr : (string * string, (Ast.role_ref * Credrec.cref) list ref) Hashtbl.t;
      (* (role, marshalled args) -> revoker role + record, per live membership *)
  sv_blacklist : (string * string, unit) Hashtbl.t;
  mutable sv_audit : audit_entry list;
  sv_sig_cache : (string, unit) Cache.t;
  sv_batch : bool;
  sv_policy_hash : int;
  sv_pending_mods : (string, string) Hashtbl.t;  (* local ref -> latest state *)
  sv_pending_ctx : (string, Trace.ctx) Hashtbl.t;
      (* trace context ambient when each pending mod was recorded, so the
         digest flush can join the revocation trace that caused it *)
  sv_residuals : (string, compiled) Cache.t;
  sv_durable : durable option;
  mutable sv_repl_sync : ((unit -> unit) -> unit) option;
      (* replication quorum hook (see {!Replica}): when set, client acks
         wait for a write quorum instead of just the local group commit,
         and log compaction is disabled so the WAL stays in the replica
         group's global stream coordinates *)
  mutable sv_auto_recover : bool;
      (* run [recover] automatically from the host-restart hook; a replica
         group disables this and drives recovery through its epoch/promote
         protocol instead *)
  mutable sv_crypto_checks : int;
  mutable sv_cache_hits : int;
}

and registry = (string, t) Hashtbl.t

let create_registry () : registry = Hashtbl.create 16
let find_service reg n : t option = Hashtbl.find_opt reg n

let services reg =
  Hashtbl.fold (fun _ t acc -> t :: acc) reg []
  |> List.sort (fun a b -> String.compare a.sv_name b.sv_name)

let name t = t.sv_name
let host t = t.sv_host

let add_sibling t n = if not (String.equal n t.sv_name) then Hashtbl.replace t.sv_family n ()

(* A service name that unqualified rolefile references resolve to: the
   service itself, or any sibling shard of the same logical service. *)
let in_family t n = String.equal n t.sv_name || Hashtbl.mem t.sv_family n
let table t = t.sv_table
let broker t = t.sv_broker
let rolefile t = t.sv_rolefile
let registry t = t.sv_registry
let role_bits t = t.sv_role_bits
let crypto_checks t = t.sv_crypto_checks
let cache_hits t = t.sv_cache_hits
let audit_log t = t.sv_audit
let gc t = Credrec.gc_sweep t.sv_table

let now t = Clock.read (Net.host_clock t.sv_host)

let audit t kind detail = t.sv_audit <- { at = now t; kind; detail } :: t.sv_audit

let stats t = Net.stats t.sv_net
let tracer t = Net.trace t.sv_net

(* --- write-ahead-log records for the durable plane ---

   One record per logged transition; fields are separated by ['\x1f'],
   list items by ['\x1e'], item subfields by ['\x1d'].  Free-form bytes
   (role names, marshalled argument strings, peer names) are hex-encoded
   so they cannot collide with the separators; record keys are already
   separator-free ([Credrec.marshal_ref] is hex plus a dot).  The grammar:

   - [F role args]       fire: blacklist the role instance (§4.11)
   - [H role args]       re-hire: drop the blacklist entry
   - [I key deps rbrs]   certificate issued over record [key]
   - [V key]             record [key] explicitly invalidated

   A snapshot payload is the same records (current blacklist, then each
   issued record followed by its [V] if dead) joined with ['\x1c'];
   replaying the full log over a snapshot is idempotent because every
   record is an upsert. *)

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

(* Apply one log record to the durable mirror (blacklist + issued table).
   Total and idempotent: recovery replays snapshot then log in order. *)
let apply_record t du line =
  match String.split_on_char '\x1f' line with
  | [ "F"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.replace t.sv_blacklist (role, argskey) ()
      | _ -> ())
  | [ "H"; role; argskey ] -> (
      match (Hex.decode role, Hex.decode argskey) with
      | Some role, Some argskey -> Hashtbl.remove t.sv_blacklist (role, argskey)
      | _ -> ())
  | [ "I"; key; deps; rbrs ] ->
      let deps = List.filter_map dec_dep (split_items deps) in
      let rbrs = List.filter_map dec_rbr (split_items rbrs) in
      Hashtbl.replace du.du_issued key { i_alive = true; i_deps = deps; i_rbrs = rbrs }
  | [ "V"; key ] -> (
      match Hashtbl.find_opt du.du_issued key with
      | Some i -> i.i_alive <- false
      | None -> ())
  | _ -> ()

(* Dead issued records are dropped from the checkpoint (and purged from
   the in-memory mirror), so the snapshot stays O(live state) under churn
   instead of O(history).  Dropping is safe: a dropped identity is never
   restored, so references to it dangle and read permanently False — the
   paper's licence to delete records whose value is false forever — and a
   later fresh allocation of the slot bumps the magic past the dropped
   identity, so old references cannot resurrect against new records. *)
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

let persist_fire t key =
  match t.sv_durable with Some du -> Journal.append du.du_journal (rec_fire key) | None -> ()

let persist_hire t key =
  match t.sv_durable with Some du -> Journal.append du.du_journal (rec_hire key) | None -> ()

(* Fire/re-hire acks must not outrun the WAL: if the service crashed in the
   group-commit window after replying Ok, recovery would resurrect a
   membership the revoker was told is gone.  So success replies ride the
   next fsync; a crash that loses the record also swallows the ack.  Under
   replication the bar is higher still: the ack waits for a write quorum
   of the replica group (the [sv_repl_sync] hook), so even losing the
   primary's disk entirely cannot lose an acknowledged transition. *)
let ack_when_durable t k =
  match t.sv_repl_sync with
  | Some quorum -> quorum k
  | None -> (
      match t.sv_durable with None -> k () | Some du -> Journal.sync du.du_journal k)

(* --- replication hooks (the {!Replica} module drives these) --- *)

(* A replicated service's journal never compacts: it is the replica
   group's shipped record stream (see {!Journal.set_replicated}). *)
let set_replication t ~sync =
  t.sv_repl_sync <- Some sync;
  Option.iter (fun du -> Journal.set_replicated du.du_journal) t.sv_durable

let journal t = Option.map (fun du -> du.du_journal) t.sv_durable
let set_auto_recover t b = t.sv_auto_recover <- b

let reregister t = Hashtbl.replace t.sv_registry t.sv_name t

let registered t =
  match find_service t.sv_registry t.sv_name with Some s -> s == t | None -> false

(* Only records backing issued certificates are logged: an invalidation of
   anything else either cascades from a logged fact at recovery or is
   reconstructed conservatively (dangling -> False). *)
let persist_invalidate t cref =
  match t.sv_durable with
  | None -> ()
  | Some du -> (
      let key = Credrec.marshal_ref cref in
      match Hashtbl.find_opt du.du_issued key with
      | Some i when i.i_alive ->
          i.i_alive <- false;
          Journal.append du.du_journal (rec_invalidate key)
      | _ -> ())

(* Root a revocation trace at an invalidation entry point: the cascade runs
   inside the span, so the record-change hooks, the buffered digest, the
   broker flush and the peers' applies all inherit its context and the span
   tree reconstructs the paper's end-to-end revocation path. *)
let with_revocation_span t ~reason f =
  let tr = tracer t in
  let sp = Trace.start tr "revoke.invalidate" in
  Trace.add_attr sp "reason" reason;
  Fun.protect
    ~finally:(fun () -> Trace.finish tr sp)
    (fun () -> Trace.with_ctx tr (Some (Trace.ctx_of sp)) f)

let invalidate_traced t ~reason cref =
  with_revocation_span t ~reason (fun () -> Credrec.invalidate t.sv_table cref);
  persist_invalidate t cref

let roll_secret t =
  Signing.Rolling.roll t.sv_secrets;
  Cache.clear t.sv_sig_cache

let sig_cache_size t = Cache.length t.sv_sig_cache
let residual_cache_size t = Cache.length t.sv_residuals

let group t gname =
  match Hashtbl.find_opt t.sv_groups gname with
  | Some g -> g
  | None ->
      let g = Group.create t.sv_table gname in
      Hashtbl.replace t.sv_groups gname g;
      g

(* --- creation --- *)

let assign_role_bits rolefile =
  let from_entries = Ast.defined_roles rolefile in
  let from_defs = List.map (fun d -> d.Ast.decl_name) (Ast.defs rolefile) in
  let all = List.sort_uniq String.compare (from_entries @ from_defs) in
  (* Deterministic mapping fixed at initialisation (§4.3). *)
  if List.length all > 62 then Error "too many roles for the role bit-set (max 62)"
  else Ok (List.mapi (fun i r -> (r, i)) all)

(* Forward reference: [recover] needs the whole credential pipeline
   (external_record, reread, issue plumbing) defined below, but the restart
   hook is registered at creation time. *)
let recover_ref : (t -> unit) ref = ref (fun _ -> ())

(* Federation-wide lint hook.  [Federation_lint] depends on this module
   (its [of_registry] reads registered services), so registration gating on
   the OASIS00n codes cannot call it directly; the linter installs itself
   here at link time.  Until then the hook reports nothing, which matches
   the pre-federation-lint behaviour. *)
let federation_linter :
    (registry -> name:string -> rolefile:Ast.rolefile -> Analyze.diag list) ref =
  ref (fun _ ~name:_ ~rolefile:_ -> [])

let set_federation_linter f = federation_linter := f

let create net host reg ~name:sv_name ?(rolefile_id = "main") ~rolefile ?(funcs = [])
    ?resolve_literal ?(compound_certificates = true) ?(fixpoint_entry = false) ?(heartbeat = 1.0)
    ?(batch_notifications = true) ?(sig_cache_cap = 1024) ?disk ?(snapshot_every = 128)
    ?(lint = `Warn) ?(register = true) () =
  match Parser.parse_result ?resolve_literal rolefile with
  | Error e -> Error e
  | Ok parsed -> (
      let callbacks =
        {
          Infer.no_callbacks with
          Infer.external_sig =
            (fun ~service ~role ->
              match find_service reg service with
              | None -> None
              | Some peer ->
                  Option.map (fun tys -> tys) (Infer.signature peer.sv_sigs role));
        }
      in
      match Infer.infer ~callbacks parsed with
      | Error e -> Error ("type error: " ^ e)
      | Ok sigs -> (
          let lint_gate =
            match lint with
            | `Off -> None
            | (`Warn | `Strict) as mode ->
                let context =
                  {
                    Analyze.default_context with
                    Analyze.infer = callbacks;
                    known_funcs = Some (List.map fst funcs @ [ "unixacl"; "acl" ]);
                  }
                in
                let diags = Analyze.check ~file:sv_name ~context parsed in
                (* Federation-wide codes (OASIS001-008) over the already
                   registered peers plus this service, keeping only the
                   diagnostics anchored at this service: joining must not
                   fail on a defect that is a peer's alone. *)
                let diags =
                  if register then
                    diags
                    @ List.filter
                        (fun d -> String.equal d.Analyze.file sv_name)
                        (!federation_linter reg ~name:sv_name ~rolefile:parsed)
                  else diags
                in
                let gating = List.filter (Analyze.gates ~strict:(mode = `Strict)) diags in
                (match gating with
                | [] ->
                    (* Non-gating findings are logged, not fatal. *)
                    List.iter
                      (fun d -> Logs.warn (fun m -> m "%s" (Analyze.diag_to_string d)))
                      diags;
                    None
                | d :: _ ->
                    Some
                      (Printf.sprintf "lint: %s%s" (Analyze.diag_to_string d)
                         (match List.length gating with
                         | 1 -> ""
                         | n -> Printf.sprintf " (and %d more issue(s))" (n - 1))))
          in
          match lint_gate with
          | Some e -> Error e
          | None -> (
          match assign_role_bits parsed with
          | Error e -> Error e
          | Ok bits ->
              let prng = Prng.create (Int64.of_int (Hashtbl.hash sv_name + 7)) in
              let blacklist = Hashtbl.create 16 in
              let durable =
                Option.map
                  (fun d ->
                    let issued = Hashtbl.create 64 in
                    {
                      du_journal =
                        Journal.create d ~file:("svc." ^ sv_name) ~every:snapshot_every
                          ~image:(fun () -> serialize_mirror blacklist issued);
                      du_issued = issued;
                    })
                  disk
              in
              let t =
                {
                  sv_net = net;
                  sv_host = host;
                  sv_registry = reg;
                  sv_name;
                  sv_rolefile_id = rolefile_id;
                  sv_rolefile = parsed;
                  sv_sigs = sigs;
                  sv_role_bits = bits;
                  sv_secrets = Signing.Rolling.create prng;
                  sv_compound = compound_certificates;
                  sv_fixpoint = fixpoint_entry;
                  sv_table = Credrec.create_table ();
                  sv_groups = Hashtbl.create 8;
                  sv_funcs = funcs;
                  sv_broker =
                    Broker.create_server net host ~name:sv_name ~heartbeat
                      ~coalesce:batch_notifications ?disk ();
                  sv_peers = Hashtbl.create 8;
                  sv_notifying = Hashtbl.create 64;
                  sv_family = Hashtbl.create 4;
                  sv_rbr = Hashtbl.create 16;
                  sv_blacklist = blacklist;
                  sv_audit = [];
                  sv_sig_cache = Cache.create sig_cache_cap;
                  sv_batch = batch_notifications;
                  sv_policy_hash = Hashtbl.hash rolefile;
                  sv_pending_mods = Hashtbl.create 64;
                  sv_pending_ctx = Hashtbl.create 64;
                  sv_residuals = Cache.create 4096;
                  sv_durable = durable;
                  sv_repl_sync = None;
                  sv_auto_recover = true;
                  sv_crypto_checks = 0;
                  sv_cache_hits = 0;
                }
              in
              (* Backup replicas share the primary's name but must not
                 shadow it in the registry; promotion re-registers. *)
              if register then Hashtbl.replace reg sv_name t;
              (match durable with
              | None -> ()
              | Some du ->
                  (* Crash: volatile state dies.  Every credential record
                     backing an issued certificate, every §4.11 revoker arm
                     and every external surrogate is forgotten from the
                     in-memory table (their children now read a dangling —
                     permanently False — reference: fail closed), sessions
                     drop, caches clear.  The durable mirror on [disk]
                     survives and is replayed by the restart hook. *)
                  Net.on_crash net host (fun () ->
                      Hashtbl.iter
                        (fun _ pl ->
                          Option.iter Broker.close pl.pl_session;
                          Hashtbl.iter
                            (fun _ surrogate -> Credrec.forget t.sv_table surrogate)
                            pl.pl_externals)
                        t.sv_peers;
                      Hashtbl.iter
                        (fun _ cell ->
                          List.iter (fun (_, rbr) -> Credrec.forget t.sv_table rbr) !cell)
                        t.sv_rbr;
                      Hashtbl.iter
                        (fun key _ ->
                          Hashtbl.remove t.sv_notifying key;
                          match Credrec.unmarshal_ref key with
                          | Some cref -> Credrec.forget t.sv_table cref
                          | None -> ())
                        du.du_issued;
                      Hashtbl.reset t.sv_peers;
                      Hashtbl.reset t.sv_rbr;
                      Hashtbl.reset t.sv_blacklist;
                      Hashtbl.reset du.du_issued;
                      Hashtbl.reset t.sv_pending_mods;
                      Hashtbl.reset t.sv_pending_ctx;
                      Cache.clear t.sv_sig_cache;
                      Cache.clear t.sv_residuals);
                  Net.on_restart net host (fun () -> if t.sv_auto_recover then !recover_ref t));
              (* Batched notification: record changes accumulate in
                 [sv_pending_mods] and are flushed as ONE ModifiedBatch
                 digest at the top of each broker heartbeat tick, so the
                 digest rides that very tick's coalesced heartbeat message
                 (steady-state: O(peers) messages per period, §4.10). *)
              if batch_notifications then
                Broker.on_heartbeat_tick t.sv_broker (fun () ->
                    if Hashtbl.length t.sv_pending_mods > 0 then begin
                      let mods =
                        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sv_pending_mods []
                        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                      in
                      Hashtbl.reset t.sv_pending_mods;
                      Stats.observe (Net.stats net) "oasis.mods.flush" (List.length mods);
                      let digest =
                        String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) mods)
                      in
                      (* The flush span's parent is the buffered context
                         with the earliest origin: a digest merging several
                         bursts is attributed to the oldest one it carries,
                         so no end-to-end latency is under-reported. *)
                      let tr = Net.trace net in
                      let parent =
                        Hashtbl.fold
                          (fun _ c acc ->
                            match acc with
                            | Some best when Trace.origin best <= Trace.origin c -> acc
                            | _ -> Some c)
                          t.sv_pending_ctx None
                      in
                      Hashtbl.reset t.sv_pending_ctx;
                      let sp = Trace.start tr ?parent "revoke.flush" in
                      Trace.add_attr sp "mods" (string_of_int (List.length mods));
                      Trace.with_ctx tr
                        (Some (Trace.ctx_of sp))
                        (fun () ->
                          ignore
                            (Broker.signal t.sv_broker "ModifiedBatch" [ Value.Str digest ]));
                      Trace.finish tr sp
                    end);
              Ok t)))

(* --- Modified event notification for records other services depend on --- *)

let arm_notification t cref =
  let key = Credrec.marshal_ref cref in
  if not (Hashtbl.mem t.sv_notifying key) then begin
    Hashtbl.replace t.sv_notifying key ();
    Credrec.on_change t.sv_table cref (fun st ->
        let state_str =
          match st with Credrec.True -> "true" | Credrec.False -> "false" | Credrec.Unknown -> "unknown"
        in
        if t.sv_batch then begin
          (* Coalesce: only the latest state per record matters; the
             heartbeat-tick hook turns the buffer into one digest event. *)
          Hashtbl.replace t.sv_pending_mods key state_str;
          match Trace.current (tracer t) with
          | Some ctx -> Hashtbl.replace t.sv_pending_ctx key ctx
          | None -> ()
        end
        else
          ignore (Broker.signal t.sv_broker "Modified" [ Value.Str key; Value.Str state_str ]))
  end

(* --- signature verification with caching (§4.2) --- *)

(* Signature length in hex chars.  §4.2 lets each service trade length
   against forgery cost; every service here signs at 16. *)
let sig_length = 16

let verify_rmc_sig t cert =
  let key = cert.Cert.rmc_sig ^ "|" ^ Cert.rmc_payload cert in
  if Cache.find t.sv_sig_cache key <> None then begin
    t.sv_cache_hits <- t.sv_cache_hits + 1;
    Stats.incr (stats t) "oasis.sigcache.hit";
    true
  end
  else begin
    t.sv_crypto_checks <- t.sv_crypto_checks + 1;
    Stats.incr (stats t) "oasis.sigcache.miss";
    let ok = Cert.verify_rmc ~length:sig_length t.sv_secrets cert in
    if ok then Cache.set t.sv_sig_cache key ();
    ok
  end

let roles_of_cert t cert =
  List.filter_map
    (fun (role, bit) -> if Bitset.mem bit cert.Cert.roles then Some role else None)
    t.sv_role_bits

let check_crr t cert =
  match Credrec.state t.sv_table cert.Cert.crr with
  | Credrec.True -> Ok ()
  | Credrec.False -> Error Revoked
  | Credrec.Unknown -> Error Unknown_state

let validate t ~client ?need_role cert =
  if not (String.equal cert.Cert.service t.sv_name && String.equal cert.Cert.rolefile t.sv_rolefile_id)
  then begin
    audit t Erroneous ("certificate for " ^ cert.Cert.service ^ " presented out of context");
    Error Wrong_context
  end
  else if not (Principal.equal_vci cert.Cert.holder client) then begin
    audit t Fraud ("certificate of " ^ Principal.vci_to_string cert.Cert.holder ^ " presented by "
                   ^ Principal.vci_to_string client);
    Error Wrong_client
  end
  else if not (verify_rmc_sig t cert) then begin
    audit t Fraud "forged or tampered certificate";
    Error Forged
  end
  else
    match need_role with
    | Some role when not (Cert.has_role ~role_bits:t.sv_role_bits cert role) ->
        audit t Erroneous ("certificate lacks role " ^ role);
        Error Insufficient
    | _ -> check_crr t cert

let validate_for_peer t cert =
  if not (String.equal cert.Cert.service t.sv_name) then Error Wrong_context
  else if not (verify_rmc_sig t cert) then Error Forged
  else
    match check_crr t cert with
    | Error e -> Error e
    | Ok () ->
        arm_notification t cert.Cert.crr;
        Ok (roles_of_cert t cert, cert.Cert.args, cert.Cert.crr)

(* --- external records (§4.9, fig 4.8) --- *)

let peer_link t peer_name =
  match Hashtbl.find_opt t.sv_peers peer_name with
  | Some pl -> pl
  | None ->
      let pl =
        {
          pl_peer = peer_name;
          pl_session = None;
          pl_connecting = false;
          pl_queued = [];
          pl_externals = Hashtbl.create 16;
          pl_batch_reg = false;
          pl_reread_pending = Hashtbl.create 16;
          pl_rereading = false;
          pl_bound_host = "";
          pl_retargeting = false;
        }
      in
      Hashtbl.replace t.sv_peers peer_name pl;
      pl

(* Batched post-heal reread: one RPC per peer link carrying every pending
   key, instead of one RPC per external record.  The handler is a pure read,
   so when [rpc_retry] exhausts its budget mid-batch the WHOLE batch is
   simply retried after a heartbeat period — idempotent, and keys that were
   already answered by a racing digest event are reconciled last-writer-wins
   by [Credrec.set_leaf]. *)
let rec reread_pending t pl peer session =
  match pl.pl_session with
  | Some s when s == session && not (Broker.stale session) ->
      let keys =
        Hashtbl.fold (fun k () acc -> k :: acc) pl.pl_reread_pending []
        |> List.sort String.compare
      in
      if keys = [] then pl.pl_rereading <- false
      else begin
        pl.pl_rereading <- true;
        (* Post-heal recovery is its own trace root (staleness, not any one
           revocation, caused it); the span stays open across retries and
           closes when the batch lands or is rescheduled. *)
        let tr = tracer t in
        let sp = Trace.start tr "revoke.reread" in
        Trace.add_attr sp "keys" (string_of_int (List.length keys));
        Trace.with_ctx tr
          (Some (Trace.ctx_of sp))
          (fun () ->
            Net.rpc_retry t.sv_net ~category:"oasis.reread"
              ~size:(32 + (16 * List.length keys))
              ~src:t.sv_host ~dst:peer.sv_host
              (fun () ->
                Ok
                  (List.filter_map
                     (fun key ->
                       Option.map
                         (fun r -> (key, Credrec.state peer.sv_table r))
                         (Credrec.unmarshal_ref key))
                     keys))
              (function
                | Ok states ->
                    List.iter
                      (fun (key, st) ->
                        Hashtbl.remove pl.pl_reread_pending key;
                        match Hashtbl.find_opt pl.pl_externals key with
                        | Some local -> Credrec.set_leaf t.sv_table local st
                        | None -> ())
                      states;
                    Trace.finish tr sp;
                    (* Anything queued while the batch was in flight. *)
                    reread_pending t pl peer session
                | Error _ ->
                    Trace.finish tr sp;
                    Engine.schedule (Net.engine t.sv_net)
                      ~delay:(Broker.server_heartbeat (broker peer))
                      (fun () -> reread_pending t pl peer session)))
      end
  | _ -> pl.pl_rereading <- false

(* Forward reference: the stale-session registry watch needs the whole
   link plumbing (batch registration, reread) defined below, but is armed
   from the staleness hook installed at connect time. *)
let retarget_ref : (t -> peer_link -> Broker.session -> unit) ref = ref (fun _ _ _ -> ())

(* One connect attempt to a peer's broker.  Failure does not abandon the
   link: if continuations are still queued (a recovery-time reread, a
   pending notification registration) the attempt is retried after a peer
   heartbeat, for as long as this link is still the live one in
   [sv_peers] — a crash on our side resets the peer table and orphans the
   loop, which then stops. *)
let rec connect_peer t pl peer =
  pl.pl_connecting <- true;
  Broker.connect t.sv_net t.sv_host (broker peer)
    ~credentials:[ "service:" ^ t.sv_name ]
    ~on_result:(fun result ->
      pl.pl_connecting <- false;
      match result with
      | Error _ ->
          if pl.pl_queued <> [] then
            Engine.schedule (Net.engine t.sv_net)
              ~delay:(Broker.server_heartbeat (broker peer))
              (fun () ->
                let live =
                  match Hashtbl.find_opt t.sv_peers pl.pl_peer with
                  | Some pl' -> pl' == pl
                  | None -> false
                in
                if
                  live && pl.pl_session = None && (not pl.pl_connecting)
                  && pl.pl_queued <> []
                then connect_peer t pl peer)
      | Ok session ->
          pl.pl_session <- Some session;
          pl.pl_bound_host <- Net.host_name peer.sv_host;
          (* §4.10: missed heartbeats mark every external record
             from this peer Unknown; recovery batch-rereads the
             states over one reliable RPC per link. *)
          Broker.on_staleness session (fun is_stale ->
              if is_stale then begin
                Hashtbl.iter
                  (fun _ local_ref ->
                    Credrec.set_leaf t.sv_table local_ref Credrec.Unknown)
                  pl.pl_externals;
                (* While stale, watch the registry: if the peer's entry
                   moves to another host (replica failover), this session
                   can never heal — the watch rebinds the link to the new
                   primary's broker. *)
                if not pl.pl_retargeting then begin
                  pl.pl_retargeting <- true;
                  Engine.schedule (Net.engine t.sv_net)
                    ~delay:(Broker.server_heartbeat t.sv_broker)
                    (fun () -> !retarget_ref t pl session)
                end
              end
              else begin
                Hashtbl.iter
                  (fun key _ -> Hashtbl.replace pl.pl_reread_pending key ())
                  pl.pl_externals;
                match find_service t.sv_registry pl.pl_peer with
                | None -> ()
                | Some peer ->
                    if not pl.pl_rereading then reread_pending t pl peer session
              end);
          let queued = List.rev pl.pl_queued in
          pl.pl_queued <- [];
          List.iter (fun k -> k session) queued)
    ()

let with_peer_session t pl k =
  match pl.pl_session with
  | Some s -> k s
  | None ->
      pl.pl_queued <- k :: pl.pl_queued;
      if not pl.pl_connecting then (
        match find_service t.sv_registry pl.pl_peer with
        | None -> () (* unknown peer: queued actions never run; externals stay Unknown *)
        | Some peer -> connect_peer t pl peer)

let state_of_string = function
  | "true" -> Credrec.True
  | "false" -> Credrec.False
  | _ -> Credrec.Unknown

(* Apply one ModifiedBatch digest ("key=state;key=state;...") to the link's
   mirrored externals.  Keys not mirrored here are skipped; re-application
   (retries, retained-log replays after reconnect) is idempotent. *)
let apply_mod_digest t pl digest =
  let tr = tracer t in
  Trace.with_span tr "revoke.apply" (fun () ->
      List.iter
        (fun item ->
          match String.index_opt item '=' with
          | None -> ()
          | Some i -> (
              let key = String.sub item 0 i in
              let state = String.sub item (i + 1) (String.length item - i - 1) in
              match Hashtbl.find_opt pl.pl_externals key with
              | None -> ()
              | Some local -> Credrec.set_leaf t.sv_table local (state_of_string state)))
        (String.split_on_char ';' digest);
      (* This hop closes the paper's revocation path: invalidation at the
         issuer -> digest -> heartbeat flush -> this peer's recompute.  The
         context carries the root's start time, so the distance from it is
         the end-to-end propagation latency. *)
      match Trace.current tr with
      | Some ctx -> Stats.observe_latency (stats t) "oasis.revoke.e2e" (Trace.since_origin tr ctx)
      | None -> ())

(* One registration per peer link covers every mirrored record when the
   issuer batches; otherwise external records would each need their own
   template and the issuer's signal path would scan O(records)
   registrations per change. *)
let ensure_batch_registration t pl =
  if not pl.pl_batch_reg then begin
    pl.pl_batch_reg <- true;
    with_peer_session t pl (fun session ->
        let tpl = Event.template "ModifiedBatch" [ Event.Any ] in
        ignore
          (Broker.register session tpl (fun e ->
               match e.Event.params with
               | [| Value.Str digest |] -> apply_mod_digest t pl digest
               | _ -> ())))
  end

(* The stale-session registry watch (armed by the staleness hook in
   [connect_peer]): while a peer session is stale, poll the registry once
   per heartbeat.  If the peer's registered service has moved to a
   different host — a replica group promoted a backup — drop the dead
   session and rebind the link: re-register the ModifiedBatch template at
   the new primary's broker and queue every mirrored external for a
   reread there, so revocation digests flow again.  If the peer heals in
   place (same host restarted), the ordinary §4.10 reread path takes over
   and the watch stands down. *)
let rec retarget_watch t pl session =
  let live =
    match Hashtbl.find_opt t.sv_peers pl.pl_peer with Some pl' -> pl' == pl | None -> false
  in
  let current =
    match pl.pl_session with Some s -> s == session | None -> false
  in
  if not (live && current) then pl.pl_retargeting <- false
  else if not (Broker.stale session) then pl.pl_retargeting <- false
  else
    match find_service t.sv_registry pl.pl_peer with
    | Some peer when not (String.equal (Net.host_name peer.sv_host) pl.pl_bound_host) ->
        pl.pl_retargeting <- false;
        Broker.close session;
        pl.pl_session <- None;
        pl.pl_batch_reg <- false;
        pl.pl_rereading <- false;
        Stats.incr (stats t) "oasis.peer.retarget";
        Hashtbl.iter
          (fun key _ -> Hashtbl.replace pl.pl_reread_pending key ())
          pl.pl_externals;
        (* Per-record (unbatched) Modified templates are not re-registered
           here: every replicated deployment batches.  The reread below
           still heals current states once. *)
        if peer.sv_batch then ensure_batch_registration t pl;
        with_peer_session t pl (fun s ->
            if not pl.pl_rereading then reread_pending t pl peer s)
    | _ ->
        Engine.schedule (Net.engine t.sv_net)
          ~delay:(Broker.server_heartbeat t.sv_broker)
          (fun () -> retarget_watch t pl session)

let () = retarget_ref := retarget_watch

(* Create (or reuse) the local surrogate for a remote credential record and
   arm event notification for its changes. *)
let external_record t ~peer_name ~remote_ref ~initial =
  let pl = peer_link t peer_name in
  let key = Credrec.marshal_ref remote_ref in
  match Hashtbl.find_opt pl.pl_externals key with
  | Some local when Credrec.live t.sv_table local ->
      Credrec.set_leaf t.sv_table local initial;
      local
  | _ ->
      let local = Credrec.leaf t.sv_table ~state:initial () in
      Hashtbl.replace pl.pl_externals key local;
      let issuer_batches =
        match find_service t.sv_registry peer_name with
        | Some peer -> peer.sv_batch
        | None -> false
      in
      if issuer_batches then ensure_batch_registration t pl
      else
        with_peer_session t pl (fun session ->
            let tpl = Event.template "Modified" [ Event.Lit (Value.Str key); Event.Any ] in
            ignore
              (Broker.register session tpl (fun e ->
                   match e.Event.params with
                   | [| _; Value.Str state |] ->
                       Credrec.set_leaf t.sv_table local (state_of_string state)
                   | _ -> ())));
      local

(* --- constraint-evaluation context --- *)

let builtin_funcs t =
  [
    ( "unixacl",
      fun args ->
        match args with
        | [ Value.Str acl; Value.Str user ] ->
            let in_group g = Group.mem (group t g) (Value.Str user) in
            Ok (Value.set_of_chars (Acl.unixacl acl ~user ~in_group))
        | _ -> Error "unixacl(acl, user) expects two strings" );
    ( "acl",
      fun args ->
        match args with
        | [ Value.Str acl_text; Value.Str full; Value.Str user ] -> (
            match Acl.parse acl_text with
            | Error e -> Error e
            | Ok acl ->
                let in_group g = Group.mem (group t g) (Value.Str user) in
                Ok (Value.set_of_chars (Acl.rights acl ~user ~in_group ~full)) )
        | _ -> Error "acl(list, full, user) expects three strings" );
  ]

let eval_ctx t =
  {
    Eval.lookup_group = (fun gname v -> Group.mem (group t gname) v);
    call =
      (fun fname args ->
        match List.assoc_opt fname (t.sv_funcs @ builtin_funcs t) with
        | Some f -> f args
        | None -> Error ("unknown extension function " ^ fname));
  }

(* --- residual membership-rule compilation (§4.7) --- *)

let rec compile_residual t env constr =
  let ctx = eval_ctx t in
  match constr with
  | Ast.Cin (e, gname) -> (
      match Eval.eval_expr ctx env e with
      | Error _ -> Const false
      | Ok v -> Ref (Group.credential (group t gname) v, false))
  | Ast.Cstar c -> compile_residual t env c
  | Ast.Cnot c -> (
      match compile_residual t env c with
      | Const b -> Const (not b)
      | Ref (r, neg) -> Ref (r, not neg))
  | Ast.Cand (a, b) -> combine_residual t env Credrec.And false [ a; b ]
  | Ast.Cor (a, b) -> combine_residual t env Credrec.Or true [ a; b ]
  | Ast.Crel _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _ -> (
      (* Constant under the captured bindings: evaluate once (§3.2.3's
         "substituting in the value of all the other subexpressions"). *)
      match Eval.eval ctx env constr with
      | Ok (truth, _, _) -> Const truth
      | Error _ -> Const false)

and combine_residual t env op unit_is_true parts =
  (* [unit_is_true]: the absorbing constant for Or is true, for And false. *)
  let compiled = List.map (compile_residual t env) parts in
  let absorbing = unit_is_true in
  if List.exists (function Const b -> b = absorbing | Ref _ -> false) compiled then
    Const absorbing
  else
    let refs = List.filter_map (function Ref (r, n) -> Some (r, n) | Const _ -> None) compiled in
    match refs with
    | [] -> Const (not absorbing)
    | [ (r, n) ] -> Ref (r, n)
    | refs -> Ref (Credrec.combine t.sv_table ~op refs, false)

(* Residual compile cache.  Only "pure-record" constraints — built solely
   from [in]-tests on variables/literals under and/or/not/star — are
   cacheable: their compiled form is a record DAG whose truth tracks group
   changes dynamically, so reusing it is semantics-preserving (the group
   credential leaves are already memoised by [Group.credential]).  Anything
   involving relations, subset tests, extension calls or binds is evaluated
   per entry as before, since those evaluate to constants captured at
   compile time. *)
let pure_expr = function Ast.Elit _ | Ast.Evar _ -> true | Ast.Ecall _ -> false

let rec pure_residual = function
  | Ast.Cin (e, _) -> pure_expr e
  | Ast.Cstar c | Ast.Cnot c -> pure_residual c
  | Ast.Cand (a, b) | Ast.Cor (a, b) -> pure_residual a && pure_residual b
  | Ast.Crel _ | Ast.Csubset _ | Ast.Ccall _ | Ast.Cbind _ -> false

let residual_key t env constr =
  let vars = List.sort_uniq String.compare (Ast.constr_vars constr) in
  let binding x =
    match List.assoc_opt x env with Some v -> x ^ "=" ^ Value.marshal v | None -> x ^ "=?"
  in
  Printf.sprintf "%d|%s|%s" t.sv_policy_hash
    (Pretty.constr_to_string constr)
    (String.concat "," (List.map binding vars))

let compile_residual_cached t env constr =
  if not (pure_residual constr) then compile_residual t env constr
  else
    let key = residual_key t env constr in
    let hit =
      match Cache.find t.sv_residuals key with
      | Some (Const _ as c) -> Some c
      | Some (Ref (r, _) as c) when Credrec.live t.sv_table r -> Some c
      | _ -> None (* absent, or the record was reclaimed by GC: recompile *)
    in
    match hit with
    | Some c ->
        Stats.incr (stats t) "oasis.residual.hit";
        c
    | None ->
        Stats.incr (stats t) "oasis.residual.miss";
        let c = compile_residual t env constr in
        Cache.set t.sv_residuals key c;
        c

(* --- memberships and the entry engine (fig 3.2) --- *)

type membership = {
  m_service : string;
  m_roles : string list;
  m_args : value list;
  m_crr : Credrec.cref;
  m_fresh : bool;  (* produced during this request (eligible for compounding) *)
  m_deps : dep list;  (* durable dependencies feeding [m_crr] *)
  m_rbrs : (string * string * string) list;  (* §4.11 revoker arms under [m_crr] *)
}

let match_args env ref_args actual =
  if List.length ref_args <> List.length actual then None
  else
    let rec go env = function
      | [] -> Some env
      | (Ast.Alit v, actual) :: rest -> if Value.equal v actual then go env rest else None
      | (Ast.Avar x, actual) :: rest -> (
          match List.assoc_opt x env with
          | Some bound -> if Value.equal bound actual then go env rest else None
          | None -> go ((x, actual) :: env) rest)
    in
    go env (List.combine ref_args actual)

let find_credential t env (role_ref : Ast.role_ref) memberships =
  let service_matches m =
    match role_ref.Ast.sref.Ast.service with
    | None -> in_family t m.m_service
    | Some svc -> String.equal m.m_service svc
  in
  let rec go = function
    | [] -> None
    | m :: rest -> (
        if service_matches m && List.mem role_ref.Ast.role m.m_roles then
          match match_args env role_ref.Ast.ref_args m.m_args with
          | Some env' -> Some (env', m)
          | None -> go rest
        else go rest)
  in
  go memberships

let head_args_values env args =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Ast.Alit v :: rest -> go (v :: acc) rest
    | Ast.Avar x :: rest -> (
        match List.assoc_opt x env with Some v -> go (v :: acc) rest | None -> None)
  in
  go [] args

let blacklist_key role args = (role, String.concat "\x01" (List.map Value.marshal args))

(* Enumerate the ways a statement's credential references can be matched
   against the membership list.  Single-pass (fig 3.2) semantics use only
   the first assignment; the fixpoint ablation (and the Unix legacy
   adapter, which chains UseDir rules along a path) needs them all,
   Datalog-style. *)
let enumerate_matches t memberships creds =
  let rec go env used = function
    | [] -> [ (env, List.rev used) ]
    | (role_ref : Ast.role_ref) :: rest ->
        let service_matches m =
          match role_ref.Ast.sref.Ast.service with
          | None -> in_family t m.m_service
          | Some svc -> String.equal m.m_service svc
        in
        List.concat_map
          (fun m ->
            if service_matches m && List.mem role_ref.Ast.role m.m_roles then
              match match_args env role_ref.Ast.ref_args m.m_args with
              | Some env' -> go env' ((role_ref, m) :: used) rest
              | None -> []
            else [])
          memberships
  in
  go [] [] creds

(* Complete one credential assignment into a membership: elector-argument
   unification, constraint evaluation, head-argument synthesis, blacklist
   check, and credential-record assembly (fig 4.6). *)
let complete_match t (entry : Ast.entry) dcerts (env, used) =
  let head_name, head_args = entry.Ast.head in
  let env =
    List.fold_left
      (fun acc d ->
        match (acc, entry.Ast.elector) with
        | None, _ | _, None -> acc
        | Some env, Some er ->
            if not (String.equal er.Ast.role d.Cert.d_delegator_role) then None
            else if er.Ast.ref_args = [] then Some env
            else match_args env er.Ast.ref_args d.Cert.d_delegator_args)
      (Some env) dcerts
  in
  match env with
  | None -> None
  | Some env -> (
      let constraint_result =
        match entry.Ast.constr with
        | None -> Some (env, [])
        | Some c -> (
            match Eval.eval (eval_ctx t) env c with
            | Ok (true, env', mrules) -> Some (env', mrules)
            | Ok (false, _, _) | Error _ -> None)
      in
      match constraint_result with
      | None -> None
      | Some (env, mrules) -> (
          match head_args_values env head_args with
          | None -> None
          | Some args ->
              if
                entry.Ast.revoker <> None
                && Hashtbl.mem t.sv_blacklist (blacklist_key head_name args)
              then None (* negated Revoked(instance) fails (§3.3.2) *)
              else begin
                (* Assemble membership-rule parents (fig 4.6).  Durable
                   dependencies and revoker arms propagate from the starred
                   credentials actually used, so an eventually-issued
                   certificate's log record names every persisted fact its
                   validity hangs on. *)
                let parents = ref [] in
                let deps = ref [] in
                let rbrs = ref [] in
                List.iter
                  (fun ((role_ref : Ast.role_ref), m) ->
                    if role_ref.Ast.starred then begin
                      parents := (m.m_crr, false) :: !parents;
                      deps := m.m_deps @ !deps;
                      rbrs := m.m_rbrs @ !rbrs
                    end)
                  used;
                List.iter
                  (fun d ->
                    if entry.Ast.elect_starred then parents := (d.Cert.d_crr, false) :: !parents;
                    match entry.Ast.elector with
                    | Some er when er.Ast.starred ->
                        parents := (d.Cert.d_delegator_crr, false) :: !parents
                    | _ -> ())
                  dcerts;
                List.iter
                  (fun (mr : Eval.mrule) ->
                    match compile_residual_cached t mr.Eval.bindings mr.Eval.residual with
                    | Const true -> ()
                    | Const false ->
                        (* A membership rule already false: represent it
                           with a permanently-false parent. *)
                        parents :=
                          (Credrec.leaf t.sv_table ~state:Credrec.False (), false) :: !parents
                    | Ref (r, neg) -> parents := (r, neg) :: !parents)
                  mrules;
                (* Role-based revocation arms its own record (fig 4.9). *)
                (match entry.Ast.revoker with
                | None -> ()
                | Some revoker ->
                    let rbr = Credrec.leaf t.sv_table ~state:Credrec.True () in
                    Credrec.set_direct_use t.sv_table rbr true;
                    parents := (rbr, false) :: !parents;
                    let key = blacklist_key head_name args in
                    let cell =
                      match Hashtbl.find_opt t.sv_rbr key with
                      | Some c -> c
                      | None ->
                          let c = ref [] in
                          Hashtbl.replace t.sv_rbr key c;
                          c
                    in
                    cell := (revoker, rbr) :: !cell;
                    rbrs := (head_name, snd key, revoker.Ast.role) :: !rbrs);
                let crr =
                  match !parents with
                  | [] -> Credrec.combine t.sv_table []
                  | parents -> Credrec.combine t.sv_table parents
                in
                Some
                  {
                    m_service = t.sv_name;
                    m_roles = [ head_name ];
                    m_args = args;
                    m_crr = crr;
                    m_fresh = true;
                    m_deps = !deps;
                    m_rbrs = !rbrs;
                  }
              end))

(* Try to apply one entry statement given current memberships.  In
   single-pass mode the first suitable credential assignment yields at most
   one membership (fig 3.2); with [all_matches] every distinct assignment
   is completed. *)
let apply_statement t ~delegation ~deleg_required_ok ~all_matches (entry : Ast.entry) memberships
    =
  let head_name, _ = entry.Ast.head in
  (* Election statements only fire when a matching delegation certificate
     accompanies the request (§4.4: separate entry paths). *)
  let delegation_ok =
    match entry.Ast.elector with
    | None -> Some []
    | Some _ -> (
        match delegation with
        | Some d
          when String.equal d.Cert.d_role head_name
               && String.equal d.Cert.d_service t.sv_name
               && deleg_required_ok ->
            if Credrec.state t.sv_table d.Cert.d_crr = Credrec.True then Some [ d ] else None
        | _ -> None)
  in
  match delegation_ok with
  | None -> []
  | Some dcerts ->
      let assignments = enumerate_matches t memberships entry.Ast.creds in
      if all_matches then List.filter_map (complete_match t entry dcerts) assignments
      else
        (* First suitable assignment only (fig 3.2). *)
        let rec first = function
          | [] -> []
          | a :: rest -> (
              match complete_match t entry dcerts a with
              | Some m -> [ m ]
              | None -> first rest)
        in
        first assignments

let run_entry_engine t ~delegation ~deleg_required_ok ~initial =
  Trace.with_span (tracer t) "rdl.entry" @@ fun () ->
  let memberships = ref initial in
  let have m =
    List.exists
      (fun m' ->
        String.equal m'.m_service m.m_service
        && m'.m_roles = m.m_roles
        && List.length m'.m_args = List.length m.m_args
        && List.for_all2 Value.equal m'.m_args m.m_args)
      !memberships
  in
  let pass ~all_matches =
    let produced = ref false in
    List.iter
      (fun entry ->
        List.iter
          (fun m ->
            (* In single-pass mode duplicates cannot arise (each statement
               fires once); in fixpoint mode they must not count as
               progress or the loop never converges. *)
            if not (all_matches && have m) then begin
              memberships := !memberships @ [ m ];
              produced := true
            end)
          (apply_statement t ~delegation ~deleg_required_ok ~all_matches entry !memberships))
      (Ast.entries t.sv_rolefile);
    !produced
  in
  if t.sv_fixpoint then begin
    (* Fixpoint mode: iterate with full credential enumeration until no new
       membership appears (bounded).  Needed for recursive rule sets such
       as the Unix directory rules of section 3.3.3. *)
    let rec loop n = if n > 0 && pass ~all_matches:true then loop (n - 1) in
    loop 16
  end
  else ignore (pass ~all_matches:false);
  !memberships

(* --- certificate issue --- *)

(* Log the issue to stable storage: the record's identity plus what it
   depends on, so recovery can re-materialise the backing subgraph.
   Records already logged (re-validation of an outstanding certificate)
   are not re-logged. *)
let persist_issue t ~crr ~deps ~rbrs =
  match t.sv_durable with
  | None -> ()
  | Some du ->
      let key = Credrec.marshal_ref crr in
      if not (Hashtbl.mem du.du_issued key) then begin
        let deps = List.sort_uniq compare deps in
        let rbrs = List.sort_uniq compare rbrs in
        Hashtbl.replace du.du_issued key { i_alive = true; i_deps = deps; i_rbrs = rbrs };
        Journal.append du.du_journal (rec_issue key deps rbrs)
      end

let issue_cert t ?(deps = []) ?(rbrs = []) ~client ~roles ~args ~crr () =
  Credrec.set_direct_use t.sv_table crr true;
  persist_issue t ~crr ~deps ~rbrs;
  let bits =
    List.fold_left
      (fun acc role ->
        match List.assoc_opt role t.sv_role_bits with
        | Some bit -> Bitset.add bit acc
        | None -> acc)
      Bitset.empty roles
  in
  let cert =
    {
      Cert.holder = client;
      service = t.sv_name;
      rolefile = t.sv_rolefile_id;
      roles = bits;
      args;
      crr;
      issued_at = now t;
      rmc_sig = "";
    }
  in
  Cert.sign_rmc t.sv_secrets ~length:sig_length cert

(* Sequentially run an async action over a list. *)
let rec seq_map f list k =
  match list with
  | [] -> k []
  | x :: rest -> f x (fun y -> seq_map f rest (fun ys -> k (y :: ys)))

(* Validate one supplied credential, local or external, producing a
   membership (or None, with audit). *)
let validate_credential t (cert : Cert.rmc) k =
  if String.equal cert.Cert.service t.sv_name then
    (* Local certificate: direct validation. *)
    if not (verify_rmc_sig t cert) then begin
      audit t Fraud "forged local credential in entry request";
      k None
    end
    else (
      match check_crr t cert with
      | Error _ -> k None
      | Ok () ->
          k
            (Some
               {
                 m_service = t.sv_name;
                 m_roles = roles_of_cert t cert;
                 m_args = cert.Cert.args;
                 m_crr = cert.Cert.crr;
                 m_fresh = false;
                 m_deps = [ Dloc (Credrec.marshal_ref cert.Cert.crr) ];
                 m_rbrs = [];
               }))
  else
    (* External certificate: RPC to the issuing service (§2.10), then mirror
       its credential record locally. *)
    match find_service t.sv_registry cert.Cert.service with
    | None ->
        audit t Erroneous ("credential from unknown service " ^ cert.Cert.service);
        k None
    | Some issuer ->
        (* Reliable: a dropped validation reply would reject a perfectly
           good credential.  [validate_for_peer] is idempotent (the
           Modified-notification arm is guarded), so retries are safe.  The
           budget is kept short (~7.5 s worst case): validation gates an
           entry decision, which must still fail closed promptly when the
           issuer is genuinely unreachable (§4.2). *)
        Net.rpc_retry t.sv_net ~category:"oasis.validate" ~attempts:3 ~backoff:0.5
          ~src:t.sv_host ~dst:issuer.sv_host
          (fun () ->
            match validate_for_peer issuer cert with
            | Ok r -> Ok r
            | Error f -> Error (Format.asprintf "%a" pp_failure f))
          (function
            | Error _ -> k None
            | Ok (roles, args, remote_ref) ->
                let local =
                  external_record t ~peer_name:cert.Cert.service ~remote_ref
                    ~initial:Credrec.True
                in
                k
                  (Some
                     {
                       m_service = cert.Cert.service;
                       m_roles = roles;
                       m_args = args;
                       m_crr = local;
                       m_fresh = false;
                       m_deps = [ Dext (cert.Cert.service, Credrec.marshal_ref remote_ref) ];
                       m_rbrs = [];
                     }))

let delegation_required_ok t (d : Cert.delegation) memberships =
  (* Every required (service, role, args) must be covered by a validated
     membership; Str "*" arguments are wildcards. *)
  List.for_all
    (fun (svc, role, req_args) ->
      List.exists
        (fun m ->
          String.equal m.m_service svc && List.mem role m.m_roles
          && List.length req_args = List.length m.m_args
          && List.for_all2
               (fun req actual ->
                 match req with Value.Str "*" -> true | v -> Value.equal v actual)
               req_args m.m_args)
        memberships)
    d.Cert.d_required

let request_entry t ~client_host ~client ~role ?args ?(creds = []) ?delegation k =
  (* Client -> service request, then async validation of each credential. *)
  Net.send t.sv_net ~category:"oasis.entry" ~size:(128 + (96 * List.length creds))
    ~src:client_host ~dst:t.sv_host (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.entry.reply" ~size:160 ~src:t.sv_host ~dst:client_host
          (fun () -> k result)
      in
      seq_map (validate_credential t) creds (fun validated ->
          let initial = List.filter_map Fun.id validated in
          (* Delegation certificate checks (§4.4). *)
          let delegation_checked =
            match delegation with
            | None -> Ok None
            | Some d ->
                if not (String.equal d.Cert.d_service t.sv_name) then Error "delegation for another service"
                else if not (Cert.verify_delegation ~length:sig_length t.sv_secrets d) then
                  Error "bad delegation signature"
                else (
                  match d.Cert.d_expires with
                  | Some e when now t > e -> Error "delegation expired"
                  | _ -> Ok (Some d))
          in
          match delegation_checked with
          | Error e -> reply (Error e)
          | Ok delegation -> (
              let deleg_required_ok =
                match delegation with
                | None -> true
                | Some d -> delegation_required_ok t d initial
              in
              let memberships =
                run_entry_engine t ~delegation ~deleg_required_ok ~initial
              in
              (* First suitable membership (fig 3.2). *)
              let suitable m =
                String.equal m.m_service t.sv_name
                && List.mem role m.m_roles
                &&
                match args with
                | None -> true
                | Some want ->
                    List.length want = List.length m.m_args
                    && List.for_all2 Value.equal want m.m_args
              in
              match List.find_opt suitable memberships with
              | None ->
                  audit t Erroneous
                    (Printf.sprintf "entry to %s denied for %s" role
                       (Principal.vci_to_string client));
                  reply (Error ("entry to role " ^ role ^ " denied"))
              | Some chosen ->
                  (* Compound certificate: fold in other fresh local roles
                     with identical arguments (§4.3). *)
                  let companions =
                    if t.sv_compound then
                      List.filter
                        (fun m ->
                          m.m_fresh && m != chosen
                          && String.equal m.m_service t.sv_name
                          && List.length m.m_args = List.length chosen.m_args
                          && List.for_all2 Value.equal m.m_args chosen.m_args)
                        memberships
                    else []
                  in
                  let roles = List.concat_map (fun m -> m.m_roles) (chosen :: companions) in
                  let crr =
                    match companions with
                    | [] -> chosen.m_crr
                    | _ ->
                        Credrec.combine t.sv_table
                          (List.map (fun m -> (m.m_crr, false)) (chosen :: companions))
                  in
                  let cert =
                    issue_cert t
                      ~deps:(List.concat_map (fun m -> m.m_deps) (chosen :: companions))
                      ~rbrs:(List.concat_map (fun m -> m.m_rbrs) (chosen :: companions))
                      ~client ~roles ~args:chosen.m_args ~crr ()
                  in
                  audit t Entry
                    (Printf.sprintf "%s entered %s" (Principal.vci_to_string client)
                       (String.concat "+" roles));
                  reply (Ok cert))))

(* --- delegation (§4.4) --- *)

let election_statements t role =
  List.filter
    (fun (e : Ast.entry) -> fst e.Ast.head = role && e.Ast.elector <> None)
    (Ast.entries t.sv_rolefile)

let request_delegation t ~client_host ~delegator ~using ~role ~required ?expires_in
    ?(revoke_on_exit = false) k =
  Net.send t.sv_net ~category:"oasis.delegate" ~size:160 ~src:client_host ~dst:t.sv_host
    (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.delegate.reply" ~size:200 ~src:t.sv_host
          ~dst:client_host (fun () -> k result)
      in
      (* The delegator must hold an elector role for some election statement
         defining [role]. *)
      match validate t ~client:delegator using with
      | Error f -> reply (Error (Format.asprintf "delegator credential: %a" pp_failure f))
      | Ok () -> (
          let holder_roles = roles_of_cert t using in
          let statement_ok (e : Ast.entry) =
            match e.Ast.elector with
            | Some er -> (
                (* The elector reference must be a local role the delegator
                   holds; argument constraints are checked against the
                   delegator's certificate arguments. *)
                er.Ast.sref.Ast.service = None
                && List.mem er.Ast.role holder_roles
                &&
                match match_args [] er.Ast.ref_args using.Cert.args with
                | Some _ -> true
                | None -> er.Ast.ref_args = [])
            | None -> false
          in
          match List.find_opt statement_ok (election_statements t role) with
          | None ->
              audit t Revocation_denied ("delegation of " ^ role ^ " refused");
              reply (Error ("no election statement permits delegating " ^ role))
          | Some chosen_statement -> (
            match chosen_statement.Ast.elector with
            | None ->
                (* A matched statement without an elector cannot name the
                   delegator's role.  This request arrives off the wire, so
                   a malformed shape must be answered with a protocol error
                   — crashing the whole host here would let any client take
                   the service down. *)
                audit t Erroneous
                  ("delegation request for " ^ role ^ " matched a statement with no elector");
                reply (Error ("statement defining " ^ role ^ " has no elector"))
            | Some er ->
              let delegator_role = er.Ast.role in
              (* The delegation's own credential record; tied to the
                 delegator's membership when revoke_on_exit is set. *)
              let d_crr =
                if revoke_on_exit then begin
                  let r = Credrec.combine_fresh t.sv_table [ (using.Cert.crr, false) ] in
                  Credrec.set_auto_revoke t.sv_table r true;
                  r
                end
                else Credrec.leaf t.sv_table ()
              in
              Credrec.set_direct_use t.sv_table d_crr true;
              let expires = Option.map (fun dt -> now t +. dt) expires_in in
              (match expires with
              | Some at ->
                  Engine.schedule (Net.engine t.sv_net)
                    ~delay:(max 0.0 (at -. now t))
                    (fun () -> invalidate_traced t ~reason:"expire" d_crr)
              | None -> ());
              let d =
                {
                  Cert.d_service = t.sv_name;
                  d_rolefile = t.sv_rolefile_id;
                  d_role = role;
                  d_required = required;
                  d_crr;
                  d_delegator_crr = using.Cert.crr;
                  d_delegator_role = delegator_role;
                  d_delegator_args = using.Cert.args;
                  d_expires = expires;
                  d_sig = "";
                }
              in
              let d = Cert.sign_delegation t.sv_secrets ~length:sig_length d in
              let r =
                {
                  Cert.r_service = t.sv_name;
                  r_role = delegator_role;
                  r_delegator_crr = using.Cert.crr;
                  r_target_crr = d_crr;
                  r_sig = "";
                }
              in
              let r = Cert.sign_revocation t.sv_secrets ~length:sig_length r in
              audit t Delegation
                (Printf.sprintf "%s delegated %s" (Principal.vci_to_string delegator) role);
              reply (Ok (d, r)))))

let request_revocation t ~client_host (rcert : Cert.revocation) k =
  Net.send t.sv_net ~category:"oasis.revoke" ~size:96 ~src:client_host ~dst:t.sv_host (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.revoke.reply" ~size:32 ~src:t.sv_host ~dst:client_host
          (fun () -> k result)
      in
      if not (String.equal rcert.Cert.r_service t.sv_name) then
        reply (Error "revocation certificate for another service")
      else if not (Cert.verify_revocation ~length:sig_length t.sv_secrets rcert) then begin
        audit t Fraud "forged revocation certificate";
        reply (Error "bad revocation signature")
      end
      else if Credrec.state t.sv_table rcert.Cert.r_delegator_crr <> Credrec.True then begin
        (* fig 4.3: the delegator must still be a member of the delegating
           role to revoke. *)
        audit t Revocation_denied "revoker no longer holds the delegating role";
        reply (Error "revoker no longer holds the delegating role")
      end
      else begin
        invalidate_traced t ~reason:"revoke" rcert.Cert.r_target_crr;
        audit t Revocation "delegation revoked";
        reply (Ok ())
      end)

let exit_role t ~client_host (cert : Cert.rmc) k =
  Net.send t.sv_net ~category:"oasis.exit" ~size:96 ~src:client_host ~dst:t.sv_host (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.exit.reply" ~size:32 ~src:t.sv_host ~dst:client_host
          (fun () -> k result)
      in
      if not (verify_rmc_sig t cert) then reply (Error "bad certificate")
      else begin
        invalidate_traced t ~reason:"exit" cert.Cert.crr;
        audit t Exit (Principal.vci_to_string cert.Cert.holder ^ " exited");
        reply (Ok ())
      end)

(* --- role-based revocation (§4.11) --- *)

let revoker_matches t (revoker_ref : Ast.role_ref) (cert : Cert.rmc) =
  revoker_ref.Ast.sref.Ast.service = None
  && Cert.has_role ~role_bits:t.sv_role_bits cert revoker_ref.Ast.role

(* Validate a fire/re-hire revoker credential, which may have been issued
   by a sibling shard of the same logical service (see {!Shard}).  Sibling
   certificates are checked at their issuer over the reliable validation
   RPC (§2.10) and mirrored here as external records, so the revocation
   right is judged against the issuer's own signature and live credential
   state — never against this shard's table, whose record refs the
   sibling's (index, magic) pairs would silently alias. *)
let validate_revoker t (revoker : Cert.rmc) k =
  if String.equal revoker.Cert.service t.sv_name then
    match validate t ~client:revoker.Cert.holder revoker with
    | Error f -> k (Error (Format.asprintf "%a" pp_failure f))
    | Ok () -> k (Ok ())
  else if not (Hashtbl.mem t.sv_family revoker.Cert.service) then begin
    audit t Erroneous
      ("revoker certificate for " ^ revoker.Cert.service ^ " presented out of context");
    k (Error (Format.asprintf "%a" pp_failure Wrong_context))
  end
  else
    match find_service t.sv_registry revoker.Cert.service with
    | None -> k (Error ("unknown sibling shard " ^ revoker.Cert.service))
    | Some issuer ->
        Net.rpc_retry t.sv_net ~category:"oasis.validate" ~attempts:3 ~backoff:0.5
          ~src:t.sv_host ~dst:issuer.sv_host
          (fun () ->
            match validate_for_peer issuer revoker with
            | Ok r -> Ok r
            | Error f -> Error (Format.asprintf "%a" pp_failure f))
          (function
            | Error e -> k (Error e)
            | Ok (_roles, _args, remote_ref) ->
                (* Mirror the revoker's record so a later revocation of the
                   revoker's own role propagates here like any other
                   external dependency. *)
                ignore
                  (external_record t ~peer_name:revoker.Cert.service ~remote_ref
                     ~initial:Credrec.True);
                k (Ok ()))

let revoke_role_instance t ~client_host ~revoker ~role ~args k =
  Net.send t.sv_net ~category:"oasis.rbr" ~size:128 ~src:client_host ~dst:t.sv_host (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.rbr.reply" ~size:32 ~src:t.sv_host ~dst:client_host
          (fun () -> k result)
      in
      validate_revoker t revoker (function
      | Error e -> reply (Error ("revoker credential: " ^ e))
      | Ok () -> (
          let key = blacklist_key role args in
          match Hashtbl.find_opt t.sv_rbr key with
          | None ->
              (* No live memberships; still blacklist if the rolefile allows
                 this revoker for the role. *)
              let allowed =
                List.exists
                  (fun (e : Ast.entry) ->
                    fst e.Ast.head = role
                    &&
                    match e.Ast.revoker with
                    | Some r -> revoker_matches t r revoker
                    | None -> false)
                  (Ast.entries t.sv_rolefile)
              in
              if allowed then begin
                Hashtbl.replace t.sv_blacklist key ();
                persist_fire t key;
                audit t Revocation (Printf.sprintf "%s(%s) blacklisted" role "");
                ack_when_durable t (fun () -> reply (Ok 0))
              end
              else reply (Error "no revocation right for this role")
          | Some cell ->
              let eligible, rest =
                List.partition (fun (r, _) -> revoker_matches t r revoker) !cell
              in
              if eligible = [] then begin
                (* Nothing armed for this revoker.  Distinguish a wrong
                   revoker from a RETRY of a fire that already committed:
                   the first attempt emptied the cell and blacklisted the
                   key, then its ack was lost (crash, dropped reply).  The
                   right is judged against the rolefile, exactly as in the
                   no-membership branch; re-firing a blacklisted instance
                   is idempotent success, acked durably like the original
                   (the ack waits out any still-pending group commit). *)
                let allowed =
                  List.exists
                    (fun (e : Ast.entry) ->
                      fst e.Ast.head = role
                      &&
                      match e.Ast.revoker with
                      | Some r -> revoker_matches t r revoker
                      | None -> false)
                    (Ast.entries t.sv_rolefile)
                in
                if allowed && Hashtbl.mem t.sv_blacklist key then
                  ack_when_durable t (fun () -> reply (Ok 0))
                else reply (Error "revoker role does not match")
              end
              else begin
                with_revocation_span t ~reason:"role" (fun () ->
                    List.iter (fun (_, rbr) -> Credrec.invalidate t.sv_table rbr) eligible);
                (* The F record alone is not durable evidence of these
                   deaths: a later re-hire removes the blacklist entry, and
                   recovery would then re-arm the revoker records and
                   resurrect the fired memberships.  Persist the death of
                   each issued record the cascade just killed. *)
                (match t.sv_durable with
                | None -> ()
                | Some du ->
                    Hashtbl.fold
                      (fun key i acc -> if i.i_alive then key :: acc else acc)
                      du.du_issued []
                    |> List.iter (fun key ->
                           match Credrec.unmarshal_ref key with
                           | Some cref when Credrec.state t.sv_table cref = Credrec.False ->
                               persist_invalidate t cref
                           | _ -> ()));
                cell := rest;
                Hashtbl.replace t.sv_blacklist key ();
                persist_fire t key;
                audit t Revocation
                  (Printf.sprintf "%d membership(s) of %s revoked by role" (List.length eligible)
                     role);
                ack_when_durable t (fun () -> reply (Ok (List.length eligible)))
              end)))

let reinstate_role_instance t ~client_host ~revoker ~role ~args k =
  Net.send t.sv_net ~category:"oasis.rbr" ~size:128 ~src:client_host ~dst:t.sv_host (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.rbr.reply" ~size:32 ~src:t.sv_host ~dst:client_host
          (fun () -> k result)
      in
      validate_revoker t revoker (function
      | Error e -> reply (Error ("revoker credential: " ^ e))
      | Ok () ->
          let allowed =
            List.exists
              (fun (e : Ast.entry) ->
                fst e.Ast.head = role
                && match e.Ast.revoker with Some r -> revoker_matches t r revoker | None -> false)
              (Ast.entries t.sv_rolefile)
          in
          if not allowed then reply (Error "no revocation right for this role")
          else begin
            Hashtbl.remove t.sv_blacklist (blacklist_key role args);
            persist_hire t (blacklist_key role args);
            ack_when_durable t (fun () -> reply (Ok ()))
          end))

(* --- interworking (§4.12) --- *)

let issue_arbitrary t ~client ~roles ~args =
  let crr = Credrec.leaf t.sv_table () in
  issue_cert t ~client ~roles ~args ~crr ()

let issue_with_record t ~client ~roles ~args ~crr = issue_cert t ~client ~roles ~args ~crr ()

let import_remote_record t ~peer ~remote =
  external_record t ~peer_name:peer ~remote_ref:remote ~initial:Credrec.True

let mint_delegation_record t ~delegator_crr ?expires_in ?(revoke_on_exit = false) () =
  let d_crr =
    if revoke_on_exit then begin
      let r = Credrec.combine_fresh t.sv_table [ (delegator_crr, false) ] in
      Credrec.set_auto_revoke t.sv_table r true;
      r
    end
    else Credrec.leaf t.sv_table ()
  in
  Credrec.set_direct_use t.sv_table d_crr true;
  (match expires_in with
  | Some dt ->
      Engine.schedule (Net.engine t.sv_net) ~delay:dt (fun () ->
          invalidate_traced t ~reason:"expire" d_crr)
  | None -> ());
  let r =
    {
      Cert.r_service = t.sv_name;
      r_role = "";
      r_delegator_crr = delegator_crr;
      r_target_crr = d_crr;
      r_sig = "";
    }
  in
  (d_crr, Cert.sign_revocation t.sv_secrets ~length:sig_length r)

let revoke_certificate t (cert : Cert.rmc) =
  invalidate_traced t ~reason:"certificate" cert.Cert.crr

(* Delegating the right to revoke (§4.4): a special delegation that passes a
   revocation certificate on, under the fixed policy that the recipient must
   themselves be a member of the elector role. *)
let delegate_revocation t ~client_host ~rcert ~to_cert k =
  Net.send t.sv_net ~category:"oasis.redelegate" ~size:128 ~src:client_host ~dst:t.sv_host
    (fun () ->
      let reply result =
        Net.send t.sv_net ~category:"oasis.redelegate.reply" ~size:160 ~src:t.sv_host
          ~dst:client_host (fun () -> k result)
      in
      if not (String.equal rcert.Cert.r_service t.sv_name) then
        reply (Error "revocation certificate for another service")
      else if not (Cert.verify_revocation ~length:sig_length t.sv_secrets rcert) then
        reply (Error "bad revocation signature")
      else if String.equal rcert.Cert.r_role "" then
        reply (Error "this revocation certificate cannot be re-delegated")
      else if not (verify_rmc_sig t to_cert) then reply (Error "bad candidate certificate")
      else if not (Cert.has_role ~role_bits:t.sv_role_bits to_cert rcert.Cert.r_role) then begin
        (* The fixed policy of §4.4. *)
        audit t Revocation_denied
          ("revocation right refused: candidate does not hold " ^ rcert.Cert.r_role);
        reply (Error ("candidate must hold the " ^ rcert.Cert.r_role ^ " role"))
      end
      else begin
        let fresh =
          {
            Cert.r_service = t.sv_name;
            r_role = rcert.Cert.r_role;
            r_delegator_crr = to_cert.Cert.crr;
            r_target_crr = rcert.Cert.r_target_crr;
            r_sig = "";
          }
        in
        audit t Delegation ("revocation right re-delegated for role " ^ rcert.Cert.r_role);
        reply (Ok (Cert.sign_revocation t.sv_secrets ~length:sig_length fresh))
      end)

(* --- crash recovery (the restart hook registered in [create]) --- *)

(* Replay snapshot + log suffix and re-materialise the credential-record
   subgraph backing issued certificates:

   1. Rebuild the durable mirror (blacklist + issued table) by applying
      the snapshot's records, then the whole log — idempotent upserts, so
      an un-truncated log over a snapshot is harmless.
   2. Restore EVERY persisted record identity (alive and dead) before any
      fresh allocation, so a fresh record can never mint an (index, magic)
      pair colliding with a reference embedded in an outstanding
      certificate.
   3. Re-attach what each record's validity hangs on: local dependency
      parents (dangling ones read permanently False — certificates whose
      issue record was lost with the unsynced tail fail closed), external
      surrogates re-mirrored at Unknown and healed by the §4.10 reread
      machinery, and §4.11 revoker arms — re-armed, or invalidated
      outright when the instance is blacklisted.

   The whole pass is charged [Disk.scan_delay] for the durable bytes read
   and traced as one [oasis.recover.e2e] span. *)
let recover ?on_done t =
  match t.sv_durable with
  | None -> Option.iter (fun k -> k ()) on_done
  | Some du ->
      let disk = Journal.disk du.du_journal in
      let bytes = Journal.durable_bytes du.du_journal in
      let tr = tracer t in
      let sp = Trace.start tr "oasis.recover.e2e" in
      Trace.add_attr sp "bytes" (string_of_int bytes);
      let t0 = Engine.now (Net.engine t.sv_net) in
      Engine.schedule (Net.engine t.sv_net) ~delay:(Disk.scan_delay disk ~bytes) (fun () ->
          let up = Net.host_up t.sv_net t.sv_host in
          (if up then
             Trace.with_ctx tr
               (Some (Trace.ctx_of sp))
               (fun () ->
                 let records = Journal.records du.du_journal in
                 List.iter (apply_record t du) records;
                 let keys =
                   Hashtbl.fold (fun k _ acc -> k :: acc) du.du_issued []
                   |> List.sort String.compare
                 in
                 let restored =
                   List.filter_map
                     (fun key ->
                       match Credrec.unmarshal_ref key with
                       | None -> None
                       | Some cref ->
                           if Credrec.restore t.sv_table cref then begin
                             Credrec.set_direct_use t.sv_table cref true;
                             arm_notification t cref;
                             Some (key, cref)
                           end
                           else None)
                     keys
                 in
                 List.iter
                   (fun (key, cref) ->
                     match Hashtbl.find_opt du.du_issued key with
                     | None ->
                         (* The mirror lost this record between the restore
                            scan and re-attachment (a crash racing the
                            delayed recovery closure can do this).  Fail
                            safe — the orphaned slot reads False — and
                            audit instead of raising out of the engine. *)
                         audit t Erroneous ("recovery: issued record vanished: " ^ key);
                         Credrec.invalidate t.sv_table cref
                     | Some i when not i.i_alive -> Credrec.invalidate t.sv_table cref
                     | Some i -> begin
                       List.iter
                         (fun dep ->
                           match dep with
                           | Dloc dkey -> (
                               match Credrec.unmarshal_ref dkey with
                               | Some dref -> Credrec.add_parent t.sv_table ~child:cref dref
                               | None -> ())
                           | Dext (peer_name, rkey) -> (
                               match Credrec.unmarshal_ref rkey with
                               | None -> ()
                               | Some remote_ref ->
                                   let local =
                                     external_record t ~peer_name ~remote_ref
                                       ~initial:Credrec.Unknown
                                   in
                                   Credrec.add_parent t.sv_table ~child:cref local))
                         i.i_deps;
                       List.iter
                         (fun (role, argskey, revoker_role) ->
                           let rbr = Credrec.leaf t.sv_table ~state:Credrec.True () in
                           Credrec.set_direct_use t.sv_table rbr true;
                           Credrec.add_parent t.sv_table ~child:cref rbr;
                           if Hashtbl.mem t.sv_blacklist (role, argskey) then
                             Credrec.invalidate t.sv_table rbr
                           else begin
                             let cell =
                               match Hashtbl.find_opt t.sv_rbr (role, argskey) with
                               | Some c -> c
                               | None ->
                                   let c = ref [] in
                                   Hashtbl.replace t.sv_rbr (role, argskey) c;
                                   c
                             in
                             let revoker_ref =
                               {
                                 Ast.sref = Ast.local_service;
                                 role = revoker_role;
                                 ref_args = [];
                                 starred = false;
                               }
                             in
                             cell := (revoker_ref, rbr) :: !cell
                           end)
                         i.i_rbrs
                     end)
                   restored;
                 (* Kick the reread machinery: every re-mirrored external is
                    Unknown until its issuer answers (§4.10). *)
                 Hashtbl.iter
                   (fun peer_name pl ->
                     Hashtbl.iter
                       (fun key _ -> Hashtbl.replace pl.pl_reread_pending key ())
                       pl.pl_externals;
                     match find_service t.sv_registry peer_name with
                     | None -> ()
                     | Some peer ->
                         with_peer_session t pl (fun session ->
                             if not pl.pl_rereading then reread_pending t pl peer session))
                   t.sv_peers;
                 Stats.incr (stats t) "oasis.recover";
                 Stats.observe (stats t) "oasis.recover.records" (List.length records)));
          Trace.finish tr sp;
          Stats.observe_latency (stats t) "oasis.recover.e2e"
            (Engine.now (Net.engine t.sv_net) -. t0);
          (* The completion hook only fires when the replay actually ran: a
             crash racing the delayed closure aborts the recovery, and the
             caller (a replica promotion) must not treat it as finished. *)
          if up then Option.iter (fun k -> k ()) on_done)

let () = recover_ref := fun t -> recover t

(* --- durability introspection (tests and benches) --- *)

let durable_issued t =
  match t.sv_durable with
  | None -> 0
  | Some du -> Hashtbl.fold (fun _ i n -> if i.i_alive then n + 1 else n) du.du_issued 0

let durable_flush t =
  match t.sv_durable with None -> () | Some du -> Journal.flush du.du_journal

let blacklisted t ~role ~args = Hashtbl.mem t.sv_blacklist (blacklist_key role args)

(* --- state fingerprint (model checking) --- *)

let fp_key = Oasis_util.Siphash.key_of_string "oasis.service.fingerprint"

let fingerprint t =
  let b = Buffer.create 512 in
  let add_sorted xs =
    List.iter
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b '\x02')
      (List.sort String.compare xs)
  in
  Buffer.add_string b (Int64.to_string (Credrec.fingerprint t.sv_table));
  Buffer.add_char b '\x03';
  add_sorted
    (Hashtbl.fold (fun (r, a) () acc -> (r ^ "\x01" ^ a) :: acc) t.sv_blacklist []);
  Buffer.add_char b '\x03';
  add_sorted (Hashtbl.fold (fun k v acc -> (k ^ "=" ^ v) :: acc) t.sv_pending_mods []);
  Buffer.add_char b '\x03';
  (match t.sv_durable with
  | None -> ()
  | Some du ->
      add_sorted
        (Hashtbl.fold
           (fun k i acc -> (k ^ if i.i_alive then "+" else "-") :: acc)
           du.du_issued []);
      Buffer.add_char b '\x03';
      Buffer.add_string b (Int64.to_string (Disk.fingerprint (Journal.disk du.du_journal))));
  Oasis_util.Siphash.hash fp_key (Buffer.contents b)
