(** Memoized FFT execution plans.

    A plan captures everything about a transform of one size that does
    not depend on the data: the bit-reversal permutation and per-stage
    twiddle-factor tables.  The seed transform recomputed twiddles with
    a per-butterfly complex recurrence, which both costs ~40% extra
    arithmetic and accumulates rounding error across each stage; plans
    evaluate every twiddle directly from [cos]/[sin] once, at build
    time.

    Plans are immutable after construction and safe to share across
    domains.  {!get} and {!real_get} memoize per size behind a mutex, so
    a cache-miss evaluation running on the engine's domain pool builds
    each table at most once per process.  Transient scratch needed by
    the real transform is supplied by the caller (see {!Workspace}), so
    executing a plan performs no allocation. *)

type t
(** A complex transform plan for one power-of-two size. *)

val build_count : unit -> int
(** Process-wide number of plans built so far (complex and real inner
    plans); a steady value under load means every transform size is
    being served from the memo table. *)

val get : int -> t
(** [get n] returns the (memoized) plan for size [n].  Raises
    [Invalid_argument] unless [n] is a power of two. *)

val size : t -> int

val exec : t -> float array -> float array -> unit
(** [exec p re im] runs the forward transform (engineering convention,
    kernel [e^{-j2 pi kn/N}]) in place.  Raises [Invalid_argument] on a
    length mismatch with the plan size. *)

type real
(** A real-input transform plan for size [n]: the packed [n/2] complex
    plan plus the untangling twiddles [e^{-j2 pi k/n}]. *)

val real_get : int -> real
(** [real_get n] returns the (memoized) real plan for size [n].  Raises
    [Invalid_argument] unless [n] is a power of two with [n >= 2]. *)

val real_forward_packed :
  real ->
  packed_re:float array ->
  packed_im:float array ->
  re:float array ->
  im:float array ->
  unit
(** [real_forward_packed p ~packed_re ~packed_im ~re ~im] computes the
    one-sided spectrum [X_0 .. X_{n/2}] of a real record [x] of the
    plan's size [n] into [re]/[im] (length at least [n/2 + 1]).  The
    caller has already packed [z_k = x_{2k} + j x_{2k+1}] (possibly
    fused with windowing) into [packed_re]/[packed_im] of length
    exactly [n/2], which are consumed as scratch.  Matches the full
    complex transform of [x] on bins [0 .. n/2] with half the
    butterfly work. *)
