(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the repository (process variations, thermal
    noise, random keys, attack search moves) flows through this module so
    that every experiment is reproducible from a single integer seed.  The
    generator is splitmix64, which has a 64-bit state, passes BigCrush, and
    supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> string -> t
(** [split t label] derives an independent generator from [t]'s seed and
    [label] without disturbing [t]'s stream.  Used to give each circuit
    element its own reproducible noise stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] draws uniformly from the inclusive range
    [lo..hi].  Raises [Invalid_argument] if [lo > hi]. *)

val float : t -> float
(** Uniform draw in [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] draws uniformly from [lo, hi). *)

val gaussian : t -> float
(** Standard normal draw (Box-Muller, cached pair; the spare is kept in
    an unboxed mutable field, so draws allocate nothing). *)

val gaussian_fill : t -> float array -> n:int -> unit
(** [gaussian_fill t buf ~n] fills [buf.(0 .. n-1)] with standard
    normal draws — the same sequence [n] calls to {!gaussian} would
    produce.  Lets hot loops pre-fill per-run noise buffers.  Raises
    [Invalid_argument] if [n] exceeds the buffer length. *)

type state
(** A saved generator position: the splitmix64 counter and any pending
    Box–Muller spare, which together fix every later draw. *)

val save : t -> state
(** The generator's current position. *)

val restore : t -> state -> unit
(** [restore t s] moves [t] to [s]: its next draws are those that
    followed [save].  The split seed is untouched. *)

val is_at : t -> state -> bool
(** [is_at t s] holds when [t]'s next draws are exactly those saved in
    [s]: the same counter, and a spare pending in both or in neither
    (a pending spare is fixed by the counter that drew it).  Allocates
    nothing. *)

val bool : t -> bool
(** Fair coin flip. *)
