(** The complete programmable multi-standard RF receiver (paper Fig. 4).

    Chain: VGLNA -> band-pass RF sigma-delta modulator -> digital fs/4
    down-conversion mixer -> digital decimation filter.  The analog
    section is configured by the 64-bit {!Config} word (the secret key
    under the locking scheme); the digital section by the 3-bit
    {!Decimator.config}.

    The digital section's input is a single-bit port: whatever waveform
    the modulator emits is hard-sliced to +-1 at that boundary.  For a
    correctly keyed chip this is the identity (the output already is a
    bitstream); for the "deceptive" open-loop keys of Fig. 7 it is what
    collapses the receiver-output SNR in Fig. 9. *)

type t

type result = {
  mod_output : float array;   (** modulator output at [fs] (settle dropped) *)
  baseband_i : float array;   (** decimated in-phase channel *)
  baseband_q : float array;   (** decimated quadrature channel *)
  fs : float;                 (** modulator sampling rate *)
  fs_baseband : float;        (** decimated output rate *)
}

val create :
  ?fabric:(Config.t -> Config.t) ->
  ?rf_fault:(float array -> float array) ->
  Circuit.Process.chip ->
  Standards.t ->
  t
(** [fabric] models a faulty programming fabric: it rewrites the
    configuration word between the key register and the analog knobs
    (stuck programming bits, transient register upsets) and applies to
    every run, including calibration — the golden path passes no hook
    and is untouched.  [rf_fault] perturbs the antenna-referred input
    record (burst noise / interferers) before the VGLNA. *)

val chip : t -> Circuit.Process.chip
val standard : t -> Standards.t
val fs : t -> float

val has_hooks : t -> bool
(** True when a [fabric] or [rf_fault] hook is installed.  A hook-free
    receiver is a pure function of its chip fingerprint, which is what
    lets the evaluation engine cache its measurements. *)

val fabric : t -> (Config.t -> Config.t) option
val rf_fault : t -> (float array -> float array) option
(** The injection hooks as passed to {!create} — exposed so the
    evaluation engine can rebuild an equivalent receiver from a request
    without this module depending on the engine. *)

val run :
  t ->
  analog:Config.t ->
  ?digital:Decimator.config ->
  ?settle:int ->
  ?slice:bool ->
  input:float array ->
  unit ->
  result
(** Simulate the chain on an antenna-referred input record (volts into
    50 ohm).  [settle] extra samples (default 1024) are prepended and
    dropped so records are steady-state; the prefix repeats the record's
    tail, which keeps a periodic record phase-coherent.  [slice]
    (default true) keeps the digital section's 1-bit input boundary;
    false is the ablation that pretends the digital section accepted
    analog samples.  The reference path: it memoises nothing.  Raises
    [Invalid_argument] on an empty [input] or a negative [settle],
    before any work. *)

val run_stimulus :
  t ->
  analog:Config.t ->
  ?settle:int ->
  stimulus:Sigkit.Waveform.stimulus ->
  n:int ->
  unit ->
  result
(** [run_stimulus t ~analog ?settle ~stimulus ~n ()] is
    [run t ~analog ?settle ~input:(Sigkit.Waveform.render stimulus n) ()],
    bit for bit (default decimator, sliced digital input), with the
    same [receiver.runs] / [receiver.samples] counts and
    [receiver.run] span.  The front half of the chain (stimulus,
    settle rotation, VGLNA) is rendered straight into a workspace slot
    (6 for a [Tone], 14 for a [Two_tone]) tagged with the die's
    identity, the sampling rate, the stimulus bits, [n], [settle] and
    the applied gain code; a later call on the same domain with an
    equal tag reuses it and runs only the back half.  A receiver with
    an [rf_fault] hook renders and amplifies afresh on every call.
    Raises [Invalid_argument] when [n < 1] or [settle < 0]. *)

val test_tone_frequency : t -> n:int -> float
(** The single-tone test frequency used throughout the evaluation: a
    coherent bin frequency one third of the half-band above the
    carrier, for an [n]-point FFT at [fs]. *)

val sdm_of_config : t -> Config.t -> Sdm.t
(** The modulator instance this receiver would run under a given word —
    exposed for calibration (oscillation mode) and white-box tests.
    A [fabric] fault hook applies here too. *)

val applied_config : t -> Config.t -> Config.t
(** The word the analog knobs actually see: identity on a healthy
    receiver, the fault-rewritten word when a [fabric] hook is set. *)

val slice_to_bit : float array -> float array
(** The digital section's 1-bit input boundary. *)
