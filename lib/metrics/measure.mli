(** Standard bench measurements on a configured receiver.

    These are the measurements the paper's evaluation and calibration
    loop perform: single-tone SNR at the modulator output and at the
    receiver output, and two-tone SFDR.  They are also the attacker's
    oracle: each call corresponds to one ATE/simulation trial, so every
    call is counted against the attack-cost model (see
    {!Attacks.Cost}). *)

type t

val create : ?p_dbm:float -> Rfchain.Receiver.t -> t
(** Measurement bench on one receiver.  [p_dbm] is the single-tone test
    power (default -25 dBm, the paper's Fig. 7/9 stimulus). *)

val trial_count : t -> int
(** Number of measurements performed so far on this bench. *)

val global_trial_count : unit -> int
(** Process-wide measurement odometer across every bench ever created,
    read from the always-on telemetry counter [measure.trials].
    Deltas of this value bracket a computation's measurement cost —
    the oracle-query accounting of {!Experiments.Security_table}. *)

val snr_mod_db : t -> Rfchain.Config.t -> float
(** Single-tone SNR at the modulator output (Fig. 7 metric):
    8192-point FFT, OSR 64. *)

val snr_mod_verified_db : t -> Rfchain.Config.t -> float
(** {!snr_mod_db} with a stimulus-linearity guard: the tone power is
    re-measured 6 dB down; if the output tone does not track (within
    +-3 dB), the "signal" is something else — typically an
    injection-locked tank regenerating the test frequency — and the
    result is [neg_infinity].  Two trials, plus a third that returns
    the SNR when the tone tracks.  This is how a bench (or a
    careful attacker) rejects false unlocks that fool the raw FFT
    metric. *)

val snr_rx_db : ?n_fft:int -> t -> Rfchain.Config.t -> float
(** Single-tone SNR at the receiver output after mixing and decimation
    (Fig. 9 metric).  [n_fft] is the baseband FFT size (default 2048;
    the input record is [n_fft * 64] samples). *)

val snr_rx_at_power_db : ?n_fft:int -> t -> Rfchain.Config.t -> p_dbm:float -> gain_code:int -> float
(** Receiver-output SNR at an arbitrary input power and VGLNA gain
    code (Fig. 11 sweeps). *)

val sfdr_db : t -> Rfchain.Config.t -> float
(** Two-tone SFDR at the modulator output (Fig. 12 metric). *)

val full : t -> Rfchain.Config.t -> Spec.measurement
(** SNR at both taps plus SFDR, packaged for spec checking. *)

val mod_output : t -> Rfchain.Config.t -> float array
(** Raw modulator-output record under the single-tone stimulus
    (Fig. 8 transient / Fig. 10 PSD source). *)
