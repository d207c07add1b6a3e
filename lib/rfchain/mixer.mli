(** Digital fs/4 down-conversion mixer.

    Because the modulator samples at [fs = 4 f0], down-conversion is a
    multiplication by the exact sequences [cos(pi n / 2) = 1,0,-1,0]
    and [-sin(pi n / 2) = 0,-1,0,1] — multiplier-free and ideal, as in
    the paper's highly-digitized architecture. *)

val downconvert : float array -> float array * float array
(** [downconvert x] returns the (i, q) baseband pair at the input rate
    (quadrature components of [x] mixed down by fs/4).  Thin allocating
    wrapper over {!downconvert_into}. *)

val downconvert_into :
  ?slice:bool ->
  float array ->
  pos:int ->
  n:int ->
  i_out:float array ->
  q_out:float array ->
  unit
(** Arena variant: mix the [n]-sample window of [src] starting at [pos]
    down into [i_out]/[q_out] (each at least [n] long; every cell in
    [0, n) is overwritten).  [slice] (default false) applies the digital
    section's 1-bit boundary to each sample first — fusing the
    [Receiver.slice_to_bit] copy into the mix.  Neither output may alias
    [src].  Bit-identical to slicing then {!downconvert}.  The receiver
    no longer runs this stage on its own: {!Decimator.feed} fuses it
    with the CIC integrators, and this staged path is the reference it
    is tested against. *)
