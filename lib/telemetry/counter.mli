(** Process-global named counters.

    Counters are always on — they are a single unboxed-int store per
    event, so the hot kernels (SDM steps, FFT transforms, bench
    measurements, oracle queries) keep exact, deterministic tallies
    whether or not span tracing is enabled.  For a fixed seed, two
    runs of the same workload produce identical counter values. *)

type t

val make : string -> t
(** Register (or look up) the counter with this name.  Idempotent:
    calling [make] twice with one name returns the same counter, so
    modules can declare their counters at top level without
    coordinating. *)

val incr : t -> unit

val add : t -> int -> unit

val value : t -> int

val find : string -> t option
(** Look up a counter registered elsewhere, without creating it. *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name
    (deterministic order). *)

val reset_all : unit -> unit
(** Zero every registered counter (registrations are kept). *)
