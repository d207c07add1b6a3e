(** Attack cost model (paper Section VI-B.1).

    The paper's per-trial measurement times on the real device:
    20 minutes to simulate one SNR point, 3 hours for an SNR sweep
    across the input range, 30 minutes for one SFDR point.  Even in
    hardware, a trial is bounded by test-bench settling and FFT capture
    (milliseconds to seconds); the key space of 2^64 makes either
    regime hopeless, which is the quantitative core of the paper's
    security argument. *)

val snr_trial_seconds : float
(** 20 min: one simulated SNR point. *)

val dr_sweep_trial_seconds : float
(** 3 h: one simulated SNR-vs-input-power sweep. *)

val sfdr_trial_seconds : float
(** 30 min: one simulated SFDR point. *)

val hardware_trial_seconds : float
(** Optimistic re-fabbed-hardware trial: 1 s. *)

val expected_brute_force_trials : float
(** Expected trials to hit one valid key assuming [valid_keys]
    functional words: half the space per valid key. *)

val seconds_to_human : float -> string
(** "3.2e9 years"-style rendering. *)

type row = {
  attack : string;
  trial_seconds : float;
  trials : float;
  total_seconds : float;
}

val row : attack:string -> trial_seconds:float -> trials:float -> row

val brute_force_table : unit -> row list
(** The Section VI-B.1 cost table: SNR / DR / SFDR-driven brute force in
    simulation and in (re-fabbed) hardware. *)

val pp_row : Format.formatter -> row -> unit
