(** Content-addressed, bounded LRU result cache.

    Keys are {!Request.cache_key} strings; values carry the measurement
    plus the trial cost the original evaluation spent, so hits can
    replay the cost into the trial odometers and keep all printed
    accounting identical to a cold run.  Telemetry counters
    [engine.cache.hit] / [engine.cache.miss] / [engine.cache.evict]
    track behaviour.  Single-domain: only the main domain touches the
    cache (workers receive pre-missed work).  Why LRU and not a
    cheaper policy: DESIGN §8 — below capacity the policy is moot, and
    neither [repro all] nor [repro lot] reaches capacity. *)

type value = {
  measurement : Metrics.Spec.measurement;
  trial_cost : int;
}

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] on non-positive capacity. *)

val capacity : t -> int
val length : t -> int

val peak : t -> int
(** High-water occupancy since creation.  [peak < capacity] after a
    full campaign means the bound never bit; [peak = capacity] means
    eviction happened (check [engine.cache.evict]).  Exported as the
    [engine_cache_entries_peak] monitor gauge. *)

val find : t -> string -> value option
(** Lookup; refreshes recency and bumps the hit/miss counter. *)

val add : t -> string -> value -> unit
(** Insert (or refresh) an entry; evicts the least-recently-used entry
    when the cache is over capacity. *)
