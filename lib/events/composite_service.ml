type definition = {
  d_name : string;
  d_vars : string list;  (* parameter order of the re-signalled event *)
  d_detector : Bead.detector;
  mutable d_count : int;
}

type t = {
  cs_broker : Broker.server;
  cs_io : Bead.io;
  mutable cs_defs : definition list;
}

(* Variables of an expression in order of first appearance: these become
   the re-signalled event's parameters. *)
let variables_of comp =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  let from_template (tpl : Event.template) =
    Array.iter (function Event.Var v -> add v | Event.Lit _ | Event.Any -> ()) tpl.Event.pats
  in
  let rec go = function
    | Composite.Base (tpl, side) ->
        from_template tpl;
        List.iter
          (function
            | Composite.Sassign (v, _) -> add v
            | Composite.Scmp _ -> ())
          side
    | Composite.Seq (a, b) | Composite.Or (a, b) | Composite.Without (a, b, _) ->
        go a;
        go b
    | Composite.Whenever c -> go c
    | Composite.Null -> ()
  in
  go comp;
  List.rev !out

let create net host ~name ~upstreams ?(heartbeat = 1.0) ?(horizon_lag = 2.0)
    ?(clock_uncertainty = 0.0) () =
  let broker = Broker.create_server net host ~name ~heartbeat ~horizon_lag () in
  let io = Broker_io.make net host ~clock_uncertainty upstreams in
  { cs_broker = broker; cs_io = io; cs_defs = [] }

let broker t = t.cs_broker

let define t ~signal_as ?env comp =
  if List.exists (fun d -> String.equal d.d_name signal_as) t.cs_defs then
    Error (signal_as ^ " is already defined")
  else begin
    let vars = variables_of comp in
    let this_def = ref None in
    let detector =
      Bead.detect t.cs_io ?env comp ~on_occur:(fun o ->
          match !this_def with
          | None -> ()
          | Some d ->
              d.d_count <- d.d_count + 1;
              let params =
                List.map
                  (fun v ->
                    match List.assoc_opt v o.Bead.env with
                    | Some value -> value
                    | None -> Oasis_rdl.Value.Str "?")
                  d.d_vars
              in
              (* Stamp with the occurrence time: out of order with respect
                 to the server's clock, covered by the horizon lag. *)
              ignore (Broker.signal t.cs_broker ~stamp:o.Bead.at signal_as params))
    in
    let d = { d_name = signal_as; d_vars = vars; d_detector = detector; d_count = 0 } in
    this_def := Some d;
    t.cs_defs <- d :: t.cs_defs;
    Ok ()
  end

let undefine t name =
  let gone, kept = List.partition (fun d -> String.equal d.d_name name) t.cs_defs in
  List.iter (fun d -> Bead.stop d.d_detector) gone;
  t.cs_defs <- kept

let definitions t = List.rev_map (fun d -> d.d_name) t.cs_defs

let detections t name =
  match List.find_opt (fun d -> String.equal d.d_name name) t.cs_defs with
  | Some d -> d.d_count
  | None -> 0
