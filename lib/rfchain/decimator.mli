(** Digital decimation filter (CIC + droop compensator).

    Third-order cascaded integrator-comb decimator followed by an
    optional droop-compensation FIR.  The digital section's 3
    programming bits select the decimation ratio (2 bits: 16/32/64/128)
    and whether the compensator is in the path (1 bit) — per-standard
    settings the paper treats as easy to derive, hence not part of the
    secret key. *)

type config = {
  ratio_select : int;   (** 0..3 -> ratio 16/32/64/128 *)
  compensator : bool;
}

val default_config : config
(** Ratio 64 (the evaluation's OSR) with compensation. *)

val ratio : config -> int

val decimate : config -> float array -> float array
(** Decimate one real channel: a CIC stage by [ratio/2] followed by a
    half-band FIR 2x stage (or a crude averaging stage when the
    compensator bit is off).  Output is gain-normalised (unity DC
    gain) with length [floor (n / ratio)].  The CIC intermediate lives
    in {!Sigkit.Workspace} slot 12; only the returned array is
    allocated.  The input may itself be a workspace buffer as long as
    it does not use slot 12. *)

val run_iq : config -> float array * float array -> float array * float array
(** Decimate both quadrature channels with identical filters.  With
    {!Mixer.downconvert_into} before it, this is the staged reference
    for {!finish}. *)

type iq
(** Slice + mixer + CIC integrators over a window fed in pieces: the
    streaming form of {!downconvert_iq}. *)

val iq : ?slice:bool -> config -> n:int -> iq
(** [iq ?slice c ~n] starts an [n]-sample window.  [slice] (default
    false) applies the digital section's 1-bit boundary first.  The
    CIC intermediates live in {!Sigkit.Workspace} slots 12 (I) and 11
    (Q) until {!finish}, so no piece may come from either slot and no
    other decimation may run on this domain in between. *)

val feed : iq -> float array -> pos:int -> len:int -> unit
(** [feed s src ~pos ~len] hands over the window's next [len] samples,
    [src.(pos)] to [src.(pos + len - 1)]; [src] is read only during
    the call.  A piece may end anywhere, inside a 4-sample mixer period
    or an r-sample CIC group.  Raises [Invalid_argument] when the piece
    does not fit in [src] or runs past the window. *)

val finish : iq -> float array * float array
(** The decimated I/Q pair of the whole window: bit-identical to
    {!Mixer.downconvert_into} [?slice] into two channels followed by
    {!run_iq} [c], however the window was cut into pieces.  Only the
    returned pair is allocated.  Raises [Invalid_argument] unless all
    [n] samples were fed. *)

val downconvert_iq :
  ?slice:bool -> config -> float array -> pos:int -> n:int -> float array * float array
(** [downconvert_iq ?slice c src ~pos ~n] is {!finish} after one
    {!feed} of the [n]-sample window of [src] starting at [pos]: the
    window mixed down by fs/4 and both quadrature channels decimated,
    in one pass and without the full-rate channels.  Raises
    [Invalid_argument] when the window does not fit in [src]. *)
