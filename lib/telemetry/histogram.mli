(** Process-global named histograms with log-scale buckets.

    Like counters, histograms are always on and allocation-free per
    observation: each [observe] updates a fixed bucket array plus
    count/sum/min/max.  Buckets are geometric with ratio 2^(1/4)
    (quarter-octave), so quantile estimates carry at most ~9% bucket
    error over a range from 2^-8 to 2^56 — plenty for FFT sizes and
    nanosecond durations alike.  Exact count, sum, min and max are
    tracked alongside, and quantiles are clamped into [min, max]. *)

type t

val make : string -> t
(** Register (or look up) the histogram with this name.  Idempotent,
    like {!Counter.make}. *)

val unregistered : string -> t
(** A private histogram outside the global registry (used by
    {!Span} for per-name duration distributions). *)

val observe : t -> float -> unit
(** Record one observation.  Non-finite values are counted but do not
    enter the buckets, so a NaN cannot poison the quantiles. *)

val quantile : t -> float -> float
(** [quantile t q] for q in [0, 1]; [nan] while empty. *)

type summary = {
  h_name : string;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

val snapshot : unit -> summary list
(** Every registered histogram, sorted by name. *)

val reset_all : unit -> unit
