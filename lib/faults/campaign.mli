(** Monte-Carlo stress campaign over the fault taxonomy.

    For a lot of calibrated (provisioned) dies, the campaign sweeps
    every fault mechanism at every severity and reports the surviving
    lock margin of the valid key; runs the single-bit key-corruption
    cliff on the primary die; and demonstrates the structured degraded
    reports the resilient calibration returns on dies faulted beyond
    recovery.  Deterministic for a fixed [seed], never raises, never
    exits. *)

type cell = {
  die_seed : int;
  mechanism : string;              (** {!Fault.name} of the injected mechanism *)
  severity : Fault.severity;
  faults : Fault.t list;
  snr_mod_db : float;              (** golden key on the faulted part *)
  lock_margin_db : float;          (** [snr_mod_db] minus the standard's min SNR *)
  in_spec : bool;
}

type stat = {
  s_mechanism : string;
  s_severity : Fault.severity;
  n : int;
  mean_margin_db : float;
  min_margin_db : float;
  max_margin_db : float;
  survival_rate : float;           (** fraction of dies still in spec *)
}

type flip_probe = {
  bit : int;
  flip_snr_mod_db : float;
  survives_full : bool;            (** 1-bit-corrupted key passes the FULL spec check *)
}

type demo = {
  label : string;
  demo_fault : Fault.t;
  outcome : Calibration.Calibrate.outcome;
}

type t = {
  standard : Rfchain.Standards.t;
  seed : int;
  dies : int;
  golden_snr_mod_db : float;       (** healthy primary die, golden key *)
  cells : cell list;
  stats : stat list;               (** one row per mechanism x severity *)
  flips : flip_probe list;         (** all 64 single-bit corruptions *)
  unlocked_bits : int list;        (** bit positions whose flip still meets spec *)
  demos : demo list;               (** calibration-defeat demonstrations *)
  interrupted : string option;     (** [Some reason] marks a partial report *)
  completed_cells : int;           (** engine cells incorporated into this report *)
}

val mechanism_names : string list
(** The sweep grid's mechanisms, in report order. *)

val run :
  ?dies:int ->
  ?seed:int ->
  ?engine:Engine.Service.t ->
  ?interrupt_after:int ->
  Rfchain.Standards.t ->
  (t, Error.t) result
(** Run the campaign ([dies] defaults to 3, [seed] to 42) on [engine]
    (default {!Engine.Service.default}).

    Supervision: the engine's deadline ({!Engine.Service.create}
    [~deadline_s]) is the campaign's.  Once it passes, the evaluation
    in flight is cancelled at its next poll and the run returns
    [Error (Deadline_exceeded _)] with the engine's seconds and an
    exact completed-cell count.  Any other cancellation — a SIGINT
    (the process-global interrupt) or [interrupt_after] — returns a
    partial report with [interrupted = Some reason].  Everything
    evaluated before either cut is already journalled if [engine]
    carries a checkpoint, so a resumed run replays it bit-identically.
    [interrupt_after n] is the deterministic test hook: it stops the
    run after exactly [n] completed cells, as if SIGINT had arrived
    there. *)

val run_by_name :
  ?dies:int ->
  ?seed:int ->
  ?engine:Engine.Service.t ->
  ?interrupt_after:int ->
  string ->
  (t, Error.t) result
(** [run] after a standard lookup; an unknown name returns
    [Error (Unknown_standard _)] listing the known standards. *)

val complete : t -> bool
(** [interrupted = None]. *)

val checks : t -> (string * bool) list
(** The campaign's pass/fail assertions (used by the CLI and tests). *)
