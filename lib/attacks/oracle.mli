(** The attacker's resources (threat model of paper Section IV-B).

    The attacker has the netlist and working oracle chips.  An oracle
    is a legitimately programmed part: its performances can be measured
    through the RF ports, but its key lives in tamper-proof storage.
    To *apply* candidate keys the attacker must re-fabricate the design
    with direct access to the programming bits — a {!refab} part, which
    is a different die with its own process variations. *)

type t
(** An oracle chip: measure, but never read the key. *)

val deploy : Rfchain.Standards.t -> chip_seed:int -> key:Core.Key.t -> t
(** A fielded, correctly provisioned part. *)

val reference_performance : t -> Metrics.Spec.measurement
(** What the attacker learns from the oracle: the performance level a
    successful attack must reproduce. *)

val standard : t -> Rfchain.Standards.t

type error = Budget_exhausted of { spent : int; limit : int }
(** The refab bench's trial-budget watchdog tripped: no further
    measurements are allowed. *)

type refab
(** The attacker's re-fabricated part with exposed programming bits. *)

val refabricate : ?trial_limit:int -> t -> attacker_seed:int -> refab
(** Manufacture a clone die.  Same netlist, new process variations.
    [trial_limit] arms a hard watchdog on the bench: once that many
    measurements have been spent, every further probe returns
    [Error (Budget_exhausted _)] — a backstop against search loops
    whose own budget accounting is wrong or subverted. *)

val try_key : refab -> Rfchain.Config.t -> (Metrics.Spec.measurement, error) result
(** Program a candidate key and measure.  Counted as one trial. *)

val try_key_fast : refab -> Rfchain.Config.t -> (float, error) result
(** Cheaper probe used inside search loops: modulator-output SNR only
    (still one trial — it is one bench measurement). *)

val refab_standard : refab -> Rfchain.Standards.t
(** The standard the re-fab part is measured against (its oracle's). *)

val trials_spent : refab -> int

val global_queries : unit -> int
(** Process-wide oracle-query odometer: bench measurements plus
    oscillation-mode probes, summed from the always-on telemetry
    counters.  Bracket an attack with two reads of this value to get
    the measurement cost it *actually* consumed — the number attack
    papers report — as opposed to the budget it was configured with. *)

val spec_distance : refab -> Metrics.Spec.measurement -> float
(** Aggregate shortfall from the oracle's standard. *)
