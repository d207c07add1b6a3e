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

val block_len : int
(** Samples per block of {!stream}, 4096: the loop polls for
    cancellation at samples 0, 4096, ... and hands the blocks on in
    {!Sigkit.Workspace} slot 7, at length [min block_len n] for an
    [n]-sample record.  {!Vglna.run_inplace} draws its noise in blocks
    of the same slot and length. *)

val stream :
  ?memo:Sigkit.Workspace.tag * (Sigkit.Workspace.tag -> Sigkit.Workspace.tag -> bool) ->
  signs:bool ->
  t ->
  float array ->
  (float array -> int -> int -> unit) ->
  unit
(** [stream ?memo ~signs t input sink] runs the modulator over [input]
    one block at a time and calls [sink block pos len] after each:
    cells [0, len) of [block] hold the output samples [pos, pos + len),
    in order, each block {!block_len} long but the last.  [block] is
    the slot-7 workspace array, overwritten by the next block: [sink]
    must copy out what it keeps and must not use slot 7 itself, and
    [input] must not be that array.  The comparator and input noise
    come from slots 8-9 and, in buffer mode, the jitter from slot 10
    (all via {!Sigkit.Workspace.gaussian}, so a die's repeat runs
    reuse the draw).

    Each block's input drive (the Gmin stage's output plus the input
    noise) is computed in a pass before the block's loop.  [memo =
    (tag, same)] says what [input] is: [tag] must fix this die and
    every sample of [input], and [same] must hold exactly for tags that
    fix the same.  With it and the Gmin stage on, the request for the
    drive of [tag] under the word's [gmin_bias] goes to slot 13
    ({!Sigkit.Workspace.admitted}): when the slot already holds that
    drive, it is used as it is, with no drive pass and no input-noise
    lookup; when the previous such request for slot 13 at this length
    on this domain asked for the same drive, the whole record's drive
    is computed into the slot, evicting what it held; otherwise the
    drive runs per block and the slot keeps what it holds (the
    receiver's test tone, typically).  The drive values are the same
    on every path.

    With [cal_buffer_enable] set, the calibration buffer
    [1.2 tanh (bgain v / 1.2)] is a pointwise pass over each block's
    loop output [v].  With [signs], every output cell [x] gives only
    the same [x >= 0.0] as without (the digital section's 1-bit
    boundary): the buffer pass is skipped, which keeps every sign,
    except on the negative samples above -1e-300, the only ones the
    buffer could round to -0.0, which get the real buffer. *)

val run_into : t -> float array -> float array -> unit
(** [run_into t input output] writes {!stream}'s output for [input]
    (without [signs]) into the first [Array.length input] cells of
    [output], which must be at least that long; every cell in that
    range is overwritten, so a stale scratch buffer is fine.  Neither
    array may be the slot-7 block.  Bit-identical to {!run}. *)

val buffer_sign : t -> float -> float
(** For tests only; nothing in the library calls it.
    [buffer_sign t v] is what {!stream} [~signs:true] stores for the loop
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
