module J = Oasis_util.Json
module Net = Oasis_sim.Net
module Value = Oasis_rdl.Value

let shard_port = "oasis.shard"
let router_port = "oasis.router"

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                       *)
(* ------------------------------------------------------------------ *)

let get_str key j =
  match J.member key j with Some v -> J.to_str v | None -> None

let get_int key j =
  match J.member key j with Some v -> J.to_int v | None -> None

let get_strs key j =
  match J.member key j with
  | Some (J.Arr l) ->
      List.fold_right
        (fun v acc ->
          match (J.to_str v, acc) with Some s, Some l -> Some (s :: l) | _ -> None)
        l (Some [])
  | Some J.Null | None -> Some []
  | Some _ -> None

(* Certificate arguments cross the wire as JSON scalars: strings and ints
   cover every rolefile the remote surface serves; richer values
   ([Set]/[Obj]) fall back to their stable marshalled form. *)
let value_to_json = function
  | Value.Str s -> J.Str s
  | Value.Int n -> J.Int n
  | v -> J.Obj [ ("marshalled", J.Str (Value.marshal v)) ]

let value_of_json = function
  | J.Str s -> Some (Value.Str s)
  | J.Int n -> Some (Value.Int n)
  | J.Obj [ ("marshalled", J.Str m) ] -> Value.unmarshal m
  | _ -> None

let get_args j =
  match J.member "args" j with
  | Some (J.Arr l) ->
      List.fold_right
        (fun v acc ->
          match (value_of_json v, acc) with
          | Some x, Some l -> Some (x :: l)
          | _ -> None)
        l (Some [])
  | Some J.Null | None -> Some []
  | Some _ -> None

let ok_doc fields = Ok (J.to_string (J.sorted (J.Obj fields)))

(* Certificate handles: certificates never cross the wire (a [vci] is
   meaningless outside its host, §2.8, and [Credrec.cref]s are
   table-relative) — the issuing shard keeps the certificate and hands the
   client an opaque handle ["<shard>:<idx>"].  The shard prefix is what
   lets the router route handle-bearing operations to the one table where
   the handle means anything. *)

let handle_to_string ~shard ~idx = Printf.sprintf "%d:%d" shard idx

let handle_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some shard, Some idx when shard >= 0 && idx >= 0 -> Some (shard, idx)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Shard server                                                        *)
(* ------------------------------------------------------------------ *)

type shard_server = {
  ss_service : Service.t;
  ss_id : int;
  ss_certs : (int, Cert.rmc) Hashtbl.t;
  mutable ss_next : int;
  ss_vcis : (string, Principal.vci) Hashtbl.t;
  ss_phost : Principal.Host.t;
  ss_pdom : Principal.Host.domain;
}

let vci_for ss client =
  match Hashtbl.find_opt ss.ss_vcis client with
  | Some v -> v
  | None ->
      let v = Principal.Host.new_vci ss.ss_phost ss.ss_pdom in
      Hashtbl.add ss.ss_vcis client v;
      v

let remember ss cert =
  let idx = ss.ss_next in
  ss.ss_next <- idx + 1;
  Hashtbl.add ss.ss_certs idx cert;
  handle_to_string ~shard:ss.ss_id ~idx

let resolve ss handle =
  match handle_of_string handle with
  | Some (shard, idx) when shard = ss.ss_id -> Hashtbl.find_opt ss.ss_certs idx
  | _ -> None

let resolve_all ss handles =
  List.fold_right
    (fun h acc ->
      match (resolve ss h, acc) with
      | Some c, Some l -> Some (c :: l)
      | _ -> None)
    handles (Some [])

let shard_handle ss j reply =
  let svc = ss.ss_service in
  let self = Service.host svc in
  match get_str "op" j with
  | Some "ping" ->
      reply
        (ok_doc
           [ ("pong", J.Str (Service.name svc)); ("shard", J.Int ss.ss_id) ])
  | Some "bootstrap" -> (
      match (get_str "client" j, get_strs "roles" j, get_args j) with
      | Some client, Some roles, Some args when roles <> [] ->
          let cert =
            Service.issue_arbitrary svc ~client:(vci_for ss client) ~roles ~args
          in
          reply (ok_doc [ ("handle", J.Str (remember ss cert)) ])
      | _ -> reply (Error "bootstrap: need client, roles, args"))
  | Some "issue" -> (
      match (get_str "client" j, get_str "role" j, get_args j, get_strs "creds" j) with
      | Some client, Some role, Some args, Some creds -> (
          match resolve_all ss creds with
          | None -> reply (Error "issue: unknown credential handle")
          | Some creds ->
              Service.request_entry svc ~client_host:self ~client:(vci_for ss client)
                ~role ~args ~creds (function
                | Error e -> reply (Error e)
                | Ok cert -> reply (ok_doc [ ("handle", J.Str (remember ss cert)) ])))
      | _ -> reply (Error "issue: need client, role, args, creds"))
  | Some "validate" -> (
      match (get_str "client" j, get_str "handle" j) with
      | Some client, Some handle -> (
          match resolve ss handle with
          | None -> reply (Error "validate: unknown handle")
          | Some cert -> (
              let need_role = get_str "need_role" j in
              match Service.validate svc ~client:(vci_for ss client) ?need_role cert with
              | Ok () -> reply (ok_doc [ ("valid", J.Bool true) ])
              | Error f -> reply (Error (Format.asprintf "%a" Service.pp_failure f))))
      | _ -> reply (Error "validate: need client, handle"))
  | Some "fire" -> (
      match (get_str "revoker" j, get_str "role" j, get_args j) with
      | Some revoker, Some role, Some args -> (
          match resolve ss revoker with
          | None -> reply (Error "fire: unknown revoker handle")
          | Some cert ->
              Service.revoke_role_instance svc ~client_host:self ~revoker:cert ~role
                ~args (function
                | Error e -> reply (Error e)
                | Ok n -> reply (ok_doc [ ("revoked", J.Int n) ])))
      | _ -> reply (Error "fire: need revoker, role, args"))
  | Some "rehire" -> (
      match (get_str "revoker" j, get_str "role" j, get_args j) with
      | Some revoker, Some role, Some args -> (
          match resolve ss revoker with
          | None -> reply (Error "rehire: unknown revoker handle")
          | Some cert ->
              Service.reinstate_role_instance svc ~client_host:self ~revoker:cert
                ~role ~args (function
                | Error e -> reply (Error e)
                | Ok () -> reply (ok_doc [ ("reinstated", J.Bool true) ])))
      | _ -> reply (Error "rehire: need revoker, role, args"))
  | Some "exit" -> (
      match get_str "handle" j with
      | Some handle -> (
          match resolve ss handle with
          | None -> reply (Error "exit: unknown handle")
          | Some cert ->
              Service.exit_role svc ~client_host:self cert (function
                | Error e -> reply (Error e)
                | Ok () -> reply (ok_doc [ ("exited", J.Bool true) ])))
      | _ -> reply (Error "exit: need handle"))
  | Some op -> reply (Error ("unknown op: " ^ op))
  | None -> reply (Error "missing op")

let serve_shard net service ~shard_id =
  let phost = Principal.Host.create ("clients@" ^ Service.name service) in
  let ss =
    {
      ss_service = service;
      ss_id = shard_id;
      ss_certs = Hashtbl.create 64;
      ss_next = 0;
      ss_vcis = Hashtbl.create 16;
      ss_phost = phost;
      ss_pdom = Principal.Host.boot_domain phost;
    }
  in
  Net.bind net (Service.host service) ~port:shard_port (fun req reply ->
      match J.parse req with
      | Error e -> reply (Error ("bad request: " ^ e))
      | Ok j -> shard_handle ss j reply);
  ss

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

type router = {
  r_net : Net.t;
  r_host : Net.host;
  r_ring : Shard.Ring.t;
  r_shards : string array;  (* wire name of shard [i]'s host *)
}

let router_owner r ~role ~args = Shard.Ring.owner r.r_ring (Shard.route_key ~role ~args)

let forward r ~shard req reply =
  if shard < 0 || shard >= Array.length r.r_shards then
    reply (Error (Printf.sprintf "no such shard: %d" shard))
  else
    Net.call_retry r.r_net ~category:"oasis.router.forward" ~src:r.r_host
      ~dst:r.r_shards.(shard) ~port:shard_port req reply

let handle_shard_of j key =
  match get_str key j with
  | None -> None
  | Some h -> ( match handle_of_string h with Some (s, _) -> Some s | None -> None)

let router_handle r req j reply =
  match get_str "op" j with
  | Some "ping" ->
      reply
        (ok_doc
           [ ("pong", J.Str "router"); ("shards", J.Int (Array.length r.r_shards)) ])
  | Some "place" -> (
      match (get_str "role" j, get_args j) with
      | Some role, Some args ->
          reply (ok_doc [ ("shard", J.Int (router_owner r ~role ~args)) ])
      | _ -> reply (Error "place: need role, args"))
  | Some "bootstrap" -> (
      (* §4.12 issue outside policy: placement is advisory, so an explicit
         [shard] wins over the ring — how clients colocate prerequisite
         certificates with the instance they will be used on. *)
      match (get_strs "roles" j, get_args j) with
      | Some (role :: _), Some args ->
          let owner =
            match get_int "shard" j with
            | Some s -> s
            | None -> router_owner r ~role ~args
          in
          forward r ~shard:owner req reply
      | _ -> reply (Error "bootstrap: need roles, args"))
  | Some "issue" -> (
      match (get_str "role" j, get_args j) with
      | Some role, Some args ->
          let owner = router_owner r ~role ~args in
          let creds = Option.value ~default:[] (get_strs "creds" j) in
          let colocated h =
            match handle_of_string h with Some (s, _) -> s = owner | None -> false
          in
          if List.for_all colocated creds then forward r ~shard:owner req reply
          else
            reply
              (Error
                 (Printf.sprintf
                    "credential not colocated with %s's shard %d (handles are \
                     table-relative; bootstrap prerequisites at the owning shard)"
                    role owner))
      | _ -> reply (Error "issue: need role, args"))
  | Some ("validate" | "exit") -> (
      let key = if get_str "handle" j <> None then "handle" else "revoker" in
      match handle_shard_of j key with
      | Some shard -> forward r ~shard req reply
      | None -> reply (Error "need a valid handle"))
  | Some ("fire" | "rehire") -> (
      match (get_str "role" j, get_args j, handle_shard_of j "revoker") with
      | Some role, Some args, Some revoker_shard ->
          let owner = router_owner r ~role ~args in
          if revoker_shard = owner then forward r ~shard:owner req reply
          else
            reply
              (Error
                 (Printf.sprintf
                    "revoker certificate lives at shard %d but %s's instance is owned \
                     by shard %d; present a revoker issued at the owning shard"
                    revoker_shard role owner))
      | _ -> reply (Error "need revoker, role, args"))
  | Some op -> reply (Error ("unknown op: " ^ op))
  | None -> reply (Error "missing op")

let serve_router net host ~ring ~shards =
  let r = { r_net = net; r_host = host; r_ring = ring; r_shards = shards } in
  Net.bind net host ~port:router_port (fun req reply ->
      match J.parse req with
      | Error e -> reply (Error ("bad request: " ^ e))
      | Ok j -> router_handle r req j reply);
  r

(* ------------------------------------------------------------------ *)
(* Client stubs                                                        *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = { c_net : Net.t; c_host : Net.host; c_router : string }

  let create net host ~router = { c_net = net; c_host = host; c_router = router }

  let request c doc k =
    Net.call_retry c.c_net ~category:"oasis.client" ~src:c.c_host ~dst:c.c_router
      ~port:router_port
      (J.to_string (J.Obj doc))
      (function
        | Error e -> k (Error e)
        | Ok s -> (
            match J.parse s with
            | Ok j -> k (Ok j)
            | Error e -> k (Error ("bad reply: " ^ e))))

  let field name extract k = function
    | Error e -> k (Error e)
    | Ok j -> (
        match extract name j with
        | Some v -> k (Ok v)
        | None -> k (Error ("reply missing " ^ name)))

  let args_json args = J.Arr (List.map value_to_json args)
  let strs l = J.Arr (List.map (fun s -> J.Str s) l)

  let ping c k = request c [ ("op", J.Str "ping") ] (fun r -> k (Result.map ignore r))

  let place c ~role ~args k =
    request c
      [ ("op", J.Str "place"); ("role", J.Str role); ("args", args_json args) ]
      (field "shard" get_int k)

  let bootstrap c ?shard ~client ~roles ~args k =
    request c
      ([
         ("op", J.Str "bootstrap");
         ("client", J.Str client);
         ("roles", strs roles);
         ("args", args_json args);
       ]
      @ match shard with Some s -> [ ("shard", J.Int s) ] | None -> [])
      (field "handle" get_str k)

  let issue c ~client ~role ~args ~creds k =
    request c
      [
        ("op", J.Str "issue");
        ("client", J.Str client);
        ("role", J.Str role);
        ("args", args_json args);
        ("creds", strs creds);
      ]
      (field "handle" get_str k)

  let validate c ~client ~handle ?need_role k =
    request c
      ([ ("op", J.Str "validate"); ("client", J.Str client); ("handle", J.Str handle) ]
      @ match need_role with Some r -> [ ("need_role", J.Str r) ] | None -> [])
      (fun r -> k (Result.map ignore r))

  let fire c ~revoker ~role ~args k =
    request c
      [
        ("op", J.Str "fire");
        ("revoker", J.Str revoker);
        ("role", J.Str role);
        ("args", args_json args);
      ]
      (field "revoked" get_int k)

  let rehire c ~revoker ~role ~args k =
    request c
      [
        ("op", J.Str "rehire");
        ("revoker", J.Str revoker);
        ("role", J.Str role);
        ("args", args_json args);
      ]
      (fun r -> k (Result.map ignore r))

  let exit_role c ~handle k =
    request c
      [ ("op", J.Str "exit"); ("handle", J.Str handle) ]
      (fun r -> k (Result.map ignore r))
end
