(** Discrete-time second-order resonator: the behavioural LC tank.

    The band-pass loop filter of the sigma-delta modulator is built from
    LC resonators whose centre frequency is set by the tank capacitance
    and whose quality factor is boosted by a negative-Gm cell.  In
    discrete time (sampling at [fs]) the tank is the two-pole section

      y[n] = 2 r cos(theta) y[n-1] - r^2 y[n-2] + x[n-2]

    with [theta = 2 pi f_res / fs] the resonance angle and [r] the pole
    radius.  [r < 1] is a damped tank, [r = 1] a lossless one, and
    [r > 1] self-oscillates — which is exactly the oscillation mode the
    calibration procedure exploits (paper, Section V-B steps 5-7).
    An amplitude soft limit (the physical supply rail) bounds the
    oscillation. *)

type t

val create : theta:float -> r:float -> ?limit:float -> unit -> t
(** [create ~theta ~r ()] makes a quiescent resonator.  [limit] is the
    rail-clip amplitude applied to the state (default 10.0, effectively
    unclipped for in-band signals but bounding oscillation). *)

val theta_of_lc : l:float -> c:float -> fs:float -> float
(** Resonance angle of an LC tank sampled at [fs]:
    [2 pi / (fs * 2 pi sqrt(LC))].  Raises [Invalid_argument] for
    non-positive values. *)

val step : t -> float -> float
(** Advance one sample with the given input, returning the output.
    Equivalent to {!output} followed by {!feed}. *)

val output : t -> float
(** First half of a sample period: produce and commit this sample's
    output (which depends only on past inputs).  Must be followed by
    exactly one {!feed} before the next {!output}.  The split API lets a
    feedback loop read all filter outputs before computing the inputs
    that close the loop, without creating a false algebraic loop.
    [Rfchain.Sdm.run_into] inlines {!output} and {!feed} into its
    unboxed loop; these two stay the behavioural reference its
    bit-exact oracle test is built from. *)

val feed : t -> float -> unit
(** Second half of a sample period: latch this sample's input (see
    {!output} for its role as the modulator's reference). *)

val reset : t -> unit
(** Zero the state. *)

val run : t -> float array -> float array
(** Map [step] over a record (state persists across the call). *)

val oscillation_frequency : t -> fs:float -> n:int -> float option
(** Kick the resonator, run [n] samples, and estimate the oscillation
    frequency from the dominant spectral peak.  Returns [None] when the
    tank does not sustain oscillation (pole radius below 1), which the
    calibration uses as the "oscillation vanishes" test.  Resets the
    state afterwards. *)
