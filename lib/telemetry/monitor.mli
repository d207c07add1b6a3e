(** Live campaign monitoring: a progress board, a rate-limited
    heartbeat piggybacked on the cancellation-poll cadence, and an
    opt-in loopback HTTP scrape server ([GET /metrics] in OpenMetrics
    text, [GET /healthz] as JSON).

    Everything is off by default; {!tick} costs one atomic load when
    monitoring is disabled, so unmonitored runs are unperturbed. *)

(** {1 Progress board} *)

val set_progress : completed:int -> total:int -> unit
(** Post campaign progress.  The first post stamps the campaign start
    time used for ETA estimation. *)

val register : string -> (unit -> (string * float) list) -> unit
(** [register name f] adds (or replaces) a named gauge provider;
    [f ()] is called at snapshot time and returns
    [(metric_name, value)] pairs.  Providers that raise contribute
    nothing.  The engine registers one exposing cache occupancy, pool
    lane state and deadline remaining. *)

(** {1 Snapshots} *)

type snapshot = {
  completed : int;
  total : int;
  elapsed_s : float;  (** since the first progress post; 0 if none *)
  eta_s : float option;  (** linear extrapolation, when estimable *)
  cache_hit_rate : float option;  (** from engine.cache.hit/miss counters *)
  gauges : (string * float) list;  (** provider gauges, provider-name order *)
}

val snapshot : unit -> snapshot

val metrics_body : unit -> string
(** The [/metrics] response body: {!Openmetrics.render} over every
    registry plus the snapshot gauges. *)

val healthz_body : unit -> string
(** The [/healthz] response body: one JSON object with progress,
    ETA, cache hit rate, pool restarts, deadline remaining and the
    engine hash. *)

(** {1 Heartbeat} *)

val tick : unit -> unit
(** Called by [Cancel.poll] on the 4096-sample cadence.  When
    monitoring is enabled (by {!start_server}) and a second has passed
    since the last one, emits one heartbeat, a [Log.info] line;
    otherwise a single atomic load. *)

(** {1 Scrape server} *)

val start_server : port:int -> (int, string) result
(** Bind 127.0.0.1:[port] (0 picks a free port), spawn the serving
    domain, and enable heartbeats.  Returns the bound port.  The
    server is single-threaded and closes each connection after one
    response; it is stopped automatically at exit. *)

val stop_server : unit -> unit

val reset : unit -> unit
(** Testing: disable monitoring and clear the progress board. *)
