(** Turn a fault list into a faulted receiver.

    Composition is by physical layer: chip-level faults ({!Fault.Pvt_drift},
    {!Fault.Comparator_drift}, {!Fault.Aging}) transform the die;
    fabric-level faults ({!Fault.Register_flip}, then {!Fault.Stuck_bits})
    rewrite the configuration word on every load; {!Fault.Burst_noise}
    corrupts the antenna-referred input.  The faulted receiver is a
    perfectly ordinary {!Rfchain.Receiver.t}: calibration, measurement
    and the attacks all run on it unchanged. *)

val chip_of : Circuit.Process.chip -> Fault.t list -> Circuit.Process.chip
(** Apply the chip-level faults; other mechanisms pass through. *)

val fabric_of : Fault.t list -> (Rfchain.Config.t -> Rfchain.Config.t) option
(** The programming-fabric rewrite, or [None] when no fabric fault is
    present.  Register upsets apply before stuck-ats, so a stuck bit
    overrides an upset on the same position. *)

val rf_of : Fault.t list -> (float array -> float array) option
(** The RF-input corruption, or [None]. *)

val tag_of : Fault.t list -> string
(** Canonical, collision-free serialisation of a fault list (exact-hex
    floats, application order preserved) — the engine cache tag for a
    faulted die. *)

val die : Circuit.Process.chip -> Fault.t list -> Engine.Request.die
(** The faulted die as an evaluation-engine request target: chip-level
    faults folded into the chip, fabric/RF faults installed as hooks,
    tagged with {!tag_of} so its measurements are cacheable. *)

val receiver : Circuit.Process.chip -> Rfchain.Standards.t -> Fault.t list -> Rfchain.Receiver.t
(** A receiver on the given die with all faults installed (built
    through the engine's one receiver constructor). *)
