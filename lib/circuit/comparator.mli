(** Clocked 1-bit comparator (the modulator's quantizer).

    In normal operation the comparator slices its input to +-1 every
    clock.  Deactivating the driving clock turns it into a unity buffer
    that passes the analog waveform through — the reconfiguration used
    by calibration step 1 and, crucially, the mechanism behind the
    "deceptive" invalid key of Fig. 7/8 (feedback open + comparator in
    buffer mode lets the analog signal through undigitized). *)

type mode =
  | Clocked  (** normal quantizer operation *)
  | Buffer
      (** clock off: the latch degenerates into a poor analog buffer —
          attenuating (it was never sized to drive the output), clipping
          well short of the logic rails, and noisy (no regeneration to
          overcome the input-referred noise) *)

val buffer_gain : float
(** 0.35: pass gain of the unclocked latch. *)

val buffer_clip : float
(** 0.8: output swing limit in buffer mode (vs +-1 logic levels). *)

val buffer_pole_alpha : float
(** One-pole smoothing coefficient of the unclocked latch node
    (pole near fs/50): without regeneration the node RC low-passes
    multi-GHz content. *)

type t

val create :
  ?mode:mode ->
  ?offset:float ->
  ?hysteresis:float ->
  ?noise:Sigkit.Rng.t ->
  ?noise_sigma:float ->
  unit ->
  t
(** [offset] is the input-referred offset voltage; [hysteresis] the
    regeneration dead-zone (decisions inside it keep the previous
    output); [noise_sigma] the input-referred decision noise. *)

val mode : t -> mode

val step : t -> float -> float
(** One clock period: quantize (or pass through in [Buffer] mode,
    clipped to the +-1 full scale).  [Rfchain.Sdm.run_into] inlines
    this step into its unboxed loop; [step] stays the behavioural
    reference its bit-exact oracle test is built from. *)

val reset : t -> unit
