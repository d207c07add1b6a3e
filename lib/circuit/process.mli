(** Process-variation model: the manufacturing identity of one die.

    A [chip] is a deterministic function from (parameter name, nominal,
    sigma) to a varied value: the same chip always returns the same draw
    for the same parameter, and two chips with different seeds return
    independent draws.  This is the behavioural stand-in for Monte-Carlo
    mismatch of a fabricated 65 nm die, and it is what makes the correct
    configuration setting unique per chip (paper, Section III). *)

type chip

val fabricate : ?lot_sigma_scale:float -> seed:int -> unit -> chip
(** [fabricate ~seed ()] manufactures a die.  [lot_sigma_scale] globally
    scales all variation sigmas (1.0 = nominal process; 0.0 = ideal
    process, used by the no-variation ablation). *)

val seed : chip -> int
(** The die's manufacturing seed (its identity). *)

val age : chip -> hours:float -> chip
(** The same die after [hours] of field use: BTI/HCI-style drift shifts
    every parameter by a slowly growing, per-parameter systematic
    amount (~0.5% per decade of hours).  The identity (seed, PUF
    entropy) is unchanged — it is the same silicon, just used; this is
    what makes a recycled part drift away from the configuration that
    was calibrated for it when new.  Raises [Invalid_argument] on
    negative hours, and on [nan] or infinite hours or an accumulated
    age that overflows to infinity. *)

val age_hours : chip -> float
(** Accumulated use (0 for fresh silicon). *)

val environment : chip -> drift:float -> chip
(** The same die in a drifted supply/temperature environment: every
    parameter shifts by [drift * z] with [z] a per-(die, parameter)
    standard normal — a correlated corner excursion, not fresh
    mismatch.  [drift = 0.01] is roughly a 1-sigma PVT excursion.
    Composable: successive calls accumulate. *)

val with_offset_bias : chip -> name:string -> bias:float -> chip
(** Inject a targeted additive shift into one named offset parameter
    (e.g. a comparator threshold drifting by [bias] volts).  Used by
    the fault-injection layer; the unbiased die is unchanged. *)

val parameter : chip -> name:string -> nominal:float -> sigma_pct:float -> float
(** Gaussian-varied parameter: [nominal * (1 + sigma_pct/100 * z)] with
    [z] a per-(chip, name) standard normal draw.  Deterministic. *)

val offset : chip -> name:string -> sigma:float -> float
(** Additive zero-mean Gaussian offset (e.g. comparator offset volts). *)

val noise_stream : chip -> name:string -> Sigkit.Rng.t
(** A fresh, reproducible RNG for a named noise source on this chip.
    Each call returns a generator restarted at the stream origin. *)

val variation_enabled : chip -> bool
(** False when the chip was fabricated with [lot_sigma_scale = 0.]. *)

val identity : chip -> string
(** Canonical fingerprint of the die's behavioural identity: chips with
    equal fingerprints draw identical parameters for every name (seed,
    sigma scale, age, PVT drift and injected biases are all folded in,
    floats rendered exactly).  Used by the evaluation engine as the
    chip component of its result-cache key. *)
