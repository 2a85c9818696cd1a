(** Per-host clocks with drift and offset.

    §6.8.4: clocks in different machines are only approximately synchronised;
    event timestamps are taken from the generating host's clock, so composite
    event ordering must tolerate drift. *)

type t

val create : ?rate:float -> ?offset:float -> Engine.t -> t
(** [rate] is the ratio of this clock to true (engine) time, default 1.0;
    [offset] is added to the scaled time, default 0.0. *)

val read : t -> float
(** The host's local timestamp for the current instant. *)

val true_time : t -> float
(** The engine's (omniscient) time; not available to protocol code, used only
    by the harness for measurement. *)
