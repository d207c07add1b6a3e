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

type fill_memo
(** What the last {!gaussian_fill_memo} into one buffer drew: the
    generator position it started from and the position (and spare)
    it left behind. *)

val fill_memo : unit -> fill_memo
(** An empty memo: the next {!gaussian_fill_memo} fills. *)

val forget : fill_memo -> unit
(** Invalidate the memo, e.g. because its buffer was overwritten. *)

val gaussian_fill_memo : t -> float array -> n:int -> fill_memo -> unit
(** [gaussian_fill_memo t buf ~n m] has the effect of
    [gaussian_fill t buf ~n], in [buf] and in [t], provided [m] is only
    ever used with [buf] and [buf] has not been written since.  When
    [m] records a fill of the same [n] from the same generator
    position, it skips the draw and only moves [t] to where that fill
    left it (allocating nothing).  A fill started with a pending
    Box–Muller spare is never memoised. *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float
(** Normal draw with the given mean and standard deviation. *)

val bool : t -> bool
(** Fair coin flip. *)
