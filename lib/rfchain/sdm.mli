(** Band-pass RF sigma-delta modulator (behavioural model of paper Fig. 6).

    Architecture: input transconductance [Gmin], an LC band-pass loop
    filter realised as two cascaded tunable resonators with coarse/fine
    capacitor arrays [Cc]/[Cf] and a Q-enhancement negative-Gm cell, a
    pre-amplifier, a clocked 1-bit comparator, a programmable loop
    delay, a feedback DAC, and an output buffer used during calibration.

    The discrete-time prototype is the 4th-order fs/4 band-pass
    modulator obtained from the second-order low-pass modulator by the
    [z -> -z^2] mapping: with both resonators tuned to fs/4 (pole radius
    1) and feedback coefficients [k1 = 1, k2 = -2] the noise transfer
    function is exactly [(1 + z^-2)^2] — a noise notch at the carrier.
    Every knob of the 64-bit configuration word perturbs this loop the
    way the physical block would:

    - [cap_coarse]/[cap_fine] move the resonator angles via the LC tank;
    - [gm_q] moves the pole radius (above 1 the tank self-oscillates:
      calibration's oscillation mode);
    - [gmin_bias]/[dac_bias] scale signal and loop gain;
    - [preamp_bias], [comp_bias], [preamp_trim] set the comparator's
      effective input noise, offset and hysteresis;
    - [loop_delay] mis-sets the DAC timing (fractional-delay error);
    - the mode bits open/close the loop, clock or bypass the comparator,
      enable the input and insert the calibration buffer. *)

type tank = private {
  theta : float;               (** resonance angle at [fs] *)
  l_henry : float;
  c_farad : float;
}

type t = private {
  chip : Circuit.Process.chip;
  fs : float;
  config : Config.t;
  tank1 : tank;
  tank2 : tank;
  r : float;                   (** Q-enhancement pole radius *)
  gmin : float;                (** input transconductance gain *)
  gmin_stage : Circuit.Nonlinear.t;
  gdac : float;                (** feedback DAC gain *)
  dac_mismatch : float;        (** residual level mismatch after trim *)
  preamp_gain : float;
  comp_offset : float;         (** residual comparator offset after trim *)
  comp_hysteresis : float;     (** regeneration dead zone, bias-dependent *)
  comp_noise_sigma : float;    (** decision noise referred to preamp output *)
  delay_samples : float;       (** fractional excess loop delay *)
  input_noise_sigma : float;   (** modulator input-referred circuit noise *)
  buffer_gain : float;         (** calibration output buffer, when in path *)
}
(** The realised loop of one die under one word.  Read-only: the
    fields are what a behavioural reference built from the [Circuit]
    modules needs to re-derive {!run_into} sample by sample. *)

val create : Circuit.Process.chip -> fs:float -> Config.t -> t
(** Instantiate the modulator of one die at sampling rate [fs] under a
    configuration word.  Cheap; all heavy work is in {!run}. *)

val run : t -> float array -> float array
(** Simulate sample by sample.  Input is the (post-VGLNA) analog record;
    output is the modulator output: a +-1 bitstream when the comparator
    is clocked, an analog waveform when it is in buffer mode.  Thin
    allocating wrapper over {!run_into}. *)

val run_into :
  ?memo:Sigkit.Workspace.tag * (Sigkit.Workspace.tag -> Sigkit.Workspace.tag -> bool) ->
  t -> float array -> float array -> unit
(** [run_into t input output] writes the modulator output for [input]
    into the first [Array.length input] cells of [output] (which must be
    at least that long; every cell in that range is overwritten, so a
    stale scratch buffer is fine).  [output] must not alias [input].
    Uses {!Sigkit.Workspace} slots 8-9 for the comparator and input
    noise and, in buffer mode, slot 10 for the jitter noise (all via
    {!Sigkit.Workspace.gaussian}, so a die's repeat runs reuse the
    draw); bit-identical to {!run}.

    The loop's input drive (the Gmin stage's output plus the input
    noise) is computed in a pass before the loop, in place into
    [output].  [memo = (tag, same)] says what [input] is: [tag] must
    fix this die and every sample of [input], and [same] must hold
    exactly for tags that fix the same.  With it and the Gmin stage
    on, the drive goes to slot 13 instead, tagged with [tag] and the
    word's [gmin_bias], and a repeat finds it there: no drive pass and
    no input-noise lookup.

    With [cal_buffer_enable] set, the calibration buffer
    [1.2 tanh (bgain v / 1.2)] is a pointwise pass over the loop's
    output [v] after the loop. *)

val run_signs_into :
  ?memo:Sigkit.Workspace.tag * (Sigkit.Workspace.tag -> Sigkit.Workspace.tag -> bool) ->
  t -> float array -> float array -> unit
(** {!run_into} for a reader of signs only: every output cell [x]
    gives the same [x >= 0.0] as {!run_into}'s (the digital section's
    1-bit boundary), with the same slots, memo, counters and span.
    It skips the calibration buffer pass, which keeps every sign: with
    the buffer in the path, each loop output is stored as it is except
    on the negative samples above -1e-300, the only ones the buffer
    could round to -0.0, which get the real buffer. *)

val buffer_sign : t -> float -> float
(** For tests only; nothing in the library calls it.
    [buffer_sign t v] is what {!run_signs_into} stores for the loop
    output [v] when the calibration buffer is in the path: [v], or
    [1.2 tanh (bgain v / 1.2)] when [-1e-300 < v < 0].  No reachable
    loop output lies in that band, so this is the only way to test the
    guard. *)

val tank_frequency : t -> float
(** True resonance frequency of the (first) tank under this die and
    configuration — ground truth for tests; not observable on silicon. *)

val oscillates : t -> bool
(** Whether the tank self-oscillates (pole radius >= 1) — what a bench
    engineer observes in calibration oscillation mode. *)

val oscillation_frequency : t -> n:int -> float option
(** Open-loop oscillation-mode measurement (calibration steps 5-6):
    kick the tank and measure the output frequency.  [None] when the
    oscillation dies out (step 7's vanishing test). *)

val global_probe_count : unit -> int
(** Process-wide count of oscillation-mode probes performed, from the
    always-on telemetry counter [sdm.osc_probes].  Together with
    {!Metrics.Measure.global_trial_count} this is the complete
    measurement odometer an oracle-query audit reads. *)

val required_delay_code : Circuit.Process.chip -> fs:float -> int
(** The loop-delay code that exactly compensates this die's excess loop
    delay at [fs] — design knowledge the calibration derives from the
    sampling frequency (paper step 11). *)
