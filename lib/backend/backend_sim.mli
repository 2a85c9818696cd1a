(** The deterministic discrete-event backend — [lib/sim]/[lib/store]
    packaged behind the {!Backend.S} signature.

    This is a pure repackaging of the pre-backend construction idiom
    ([Engine.create] / [Net.create] / [Disk.create]); semantics are
    byte-identical, which the sim-ordering regression in
    [test/test_backend.ml] (replaying a persisted model-checking schedule)
    pins down. *)

val create : unit -> Backend.t
(** A fresh engine, network and devices with {!Oasis_sim.Net.create}'s
    and {!Oasis_store.Disk.create}'s defaults.  {!Backend.S.disk}
    memoizes one device per host. *)
