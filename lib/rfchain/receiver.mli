(** The complete programmable multi-standard RF receiver (paper Fig. 4).

    Chain: VGLNA -> band-pass RF sigma-delta modulator -> digital fs/4
    down-conversion mixer -> digital decimation filter.  The analog
    section is configured by the 64-bit {!Config} word (the secret key
    under the locking scheme); the digital section runs the 3-bit
    {!Decimator.default_config}, a per-standard setting the paper
    treats as easy to derive.

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

val fs_baseband : t -> float
(** The decimated output rate: [fs t] over the ratio of
    {!Decimator.default_config}. *)

val fabric : t -> (Config.t -> Config.t) option
val rf_fault : t -> (float array -> float array) option
(** The injection hooks as passed to {!create} — exposed so the
    evaluation engine can rebuild an equivalent receiver from a request
    without this module depending on the engine. *)

val run :
  t ->
  analog:Config.t ->
  ?settle:int ->
  ?slice:bool ->
  input:float array ->
  unit ->
  result
(** Simulate the chain on an antenna-referred input record (volts into
    50 ohm).  [settle] extra samples (default 1024) are prepended and
    dropped so records are steady-state; the prefix repeats the record's
    tail, which keeps a periodic record phase-coherent.  The digital
    section runs {!Decimator.default_config}.  [slice]
    (default true) keeps the digital section's 1-bit input boundary;
    false is the ablation that pretends the digital section accepted
    analog samples.  The reference path: it memoises nothing.  The
    back half streams: the modulator hands its output on in
    {!Sdm.block_len}-sample blocks, each copied into [mod_output] and
    fed to the slice, mixer and CIC integrators ({!Decimator.feed}), so
    no full-length modulator record is kept besides [mod_output].
    Raises [Invalid_argument] on an empty [input] or a negative
    [settle], before any work. *)

val capture_modulator :
  t ->
  analog:Config.t ->
  ?settle:int ->
  stimulus:Sigkit.Waveform.stimulus ->
  n:int ->
  unit ->
  float array
(** The modulator tap of a stimulus capture:
    [capture_modulator t ~analog ?settle ~stimulus ~n ()] is the
    [mod_output] of
    [run t ~analog ?settle ~input:(Sigkit.Waveform.render stimulus n) ()],
    bit for bit, with the same [receiver.runs] / [receiver.samples]
    counts and [receiver.run] span.  It runs the front half and the
    modulator (calibration buffer included), copying each of the
    modulator's blocks into the fresh record, and no digital section.

    The front half of the chain (stimulus, settle rotation, VGLNA) is
    computed in a workspace slot (6 for a [Tone], 14 for a
    [Two_tone]) tagged with the die's identity, the sampling rate, the
    stimulus bits, [n], [settle] and the applied gain code; a later
    capture of either tap on the same domain with an equal tag reuses
    it and runs only the back half.  A [Tone]'s settle-extended record
    itself is taken from workspace slot 13, tagged with the stimulus
    bits, [n] and [settle] and rendered there on a miss, and copied
    into slot 6 before the VGLNA: it depends on neither the die nor
    the word, so a front-half miss at another gain code or on another
    die finds it there.  For a [Tone] the modulator may also keep its
    input drive in slot 13 under the front half's tag
    ({!Sdm.stream}'s [memo]), evicting the tone, when the drive is
    asked for twice in a row.  A receiver with an [rf_fault] hook
    takes its tone from slot 13 the same way, then applies the hook
    and amplifies afresh on every call, and keeps no drive.  Two-tones
    are rendered straight into slot 14.  Raises [Invalid_argument]
    when [n < 1] or [settle < 0]. *)

val capture_baseband :
  t ->
  analog:Config.t ->
  ?settle:int ->
  stimulus:Sigkit.Waveform.stimulus ->
  n:int ->
  unit ->
  float array * float array
(** The receiver-output tap of a stimulus capture: the
    [(baseband_i, baseband_q)] of the same [run], bit for bit, at
    {!fs_baseband}, with the same front-half memo, counts, span and
    errors as {!capture_modulator}.
    The digital section reads only the sign of each modulator sample,
    so the modulator streams with {!Sdm.stream} [~signs:true] (no
    calibration buffer pass) and no modulator record is copied out. *)

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
