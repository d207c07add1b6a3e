(** Radix-2 fast Fourier transforms over memoized {!Plan}s.

    Operates in place on parallel real/imaginary [float array]s, which
    avoids boxing [Complex.t] in hot loops.  Lengths must be powers of
    two; {!is_pow2} and {!next_pow2} help callers prepare records.
    Every transform runs off a per-size cached plan (bit-reversal
    permutation + twiddle tables), so repeated transforms of one size —
    the measurement pipeline's normal regime — pay no per-call setup. *)

val is_pow2 : int -> bool
val next_pow2 : int -> int

val forward : float array -> float array -> unit
(** [forward re im] transforms in place (decimation in time, no
    normalisation).  Raises [Invalid_argument] on length mismatch or
    non-power-of-two length. *)

val magnitude_squared : float array -> float array -> float array
(** Pointwise |X_k|^2 of a transformed record. *)
