(** Domain-local scratch arenas for zero-allocation hot paths.

    Measurement kernels (periodogram, real FFT, the modulator
    loop) need several same-sized float arrays per call.  Allocating
    them fresh per measurement is what made the seed periodogram cost
    5+ arrays per call.  A workspace hands out arrays keyed by
    [(slot, length)], reusing them across calls.

    Thread-safety contract: the arena is stored in {!Domain.DLS}, so
    each domain of the engine's pool owns a private workspace and no
    locking is needed.  Arrays returned by {!arr} are only valid until
    the next call with the same slot and length {e on the same domain};
    callers must fully overwrite them before reading and must not
    retain them across yields to other work wanting the same slot.
    Data returned to callers (e.g. [Spectrum.t.power]) must be copied
    out into fresh arrays.

    Slot discipline (keeps concurrent users of one domain apart; the
    full map and per-stage liveness argument are in DESIGN §15):
    0-1 [Fft] convenience wrappers, 2-5 [Spectrum],
    6-14 the [Rfchain] evaluation chain (6 settle-extended record,
    tagged with its single-tone front half, 7 modulator output, 8-9
    [Sdm] tagged comparator/input noise, 10-11 mixer I/Q, 12
    [Decimator] CIC intermediate, 13 [Vglna] noise batch, then [Sdm]
    buffer-mode jitter, 14 tagged two-tone front half), 15 tests. *)

type t

val get : unit -> t
(** The calling domain's workspace (created on first use). *)

val arr : t -> slot:int -> len:int -> float array
(** [arr t ~slot ~len] returns the scratch array for [(slot, len)],
    allocating it on first use.  Contents are unspecified.  [slot] must
    be in [0..15].  The same physical array is returned for repeated
    calls with equal arguments on the same domain. *)

val gaussian : t -> slot:int -> len:int -> Rng.t -> float array
(** [gaussian t ~slot ~len rng] returns the [(slot, len)] scratch array
    holding [len] standard normal draws from [rng]: the same values,
    and the same effect on [rng], as [Rng.gaussian_fill rng a ~n:len].
    The array is tagged with the stream's starting position, so a later
    call with a generator at that same position (e.g. a fresh split of
    the same die and name) skips the draw and returns it unchanged.
    The result is read-only, valid until the next {!arr} or [gaussian]
    call on that slot and length; {!arr} and {!tagged} clear the
    tag. *)

type tag = ..
(** What a {!tagged} array holds.  Extensible: each owner of a tagged
    slot adds its own constructor. *)

val tagged :
  t -> slot:int -> len:int -> same:(tag -> tag -> bool) -> tag -> (float array -> unit) ->
  float array
(** [tagged t ~slot ~len ~same tag fill] returns the [(slot, len)]
    scratch array holding what [fill] writes into it.  When the array
    already carries a tag [held] with [same held tag], it is returned
    unchanged and [fill] does not run; otherwise the tag is cleared,
    [fill] overwrites the array and then the array is tagged with
    [tag].  [fill] must write every cell it reads back and must not use
    this slot and length itself.  The result is read-only, valid until
    the next {!arr}, {!gaussian} or [tagged] call on that slot and
    length, each of which clears or replaces the tag. *)

val allocations : unit -> int
(** Process-wide count of scratch arrays materialised so far; a steady
    value under load means the hot path has stopped allocating. *)
