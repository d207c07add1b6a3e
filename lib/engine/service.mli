(** The central evaluation service.

    One simulate-and-measure entry point for every consumer —
    calibration sweeps, oracle/refab attack trials, the figure and
    table experiments, and the fault campaign.  Evaluation of a
    {!Request.t} is a pure function, so the service can front it with a
    content-addressed LRU cache and fan request grids out across a
    fixed pool of OCaml 5 domains while keeping same-seed output
    byte-identical to the sequential backend.

    Every request takes the same two steps.  {e Resolve}: look the
    request up in the cache, then in the checkpoint journal (a journal
    hit is published to the cache); either kind of hit replays the
    original evaluation's trial cost into the [measure.trials] odometer
    and any {!Account}, so printed query accounting is independent of
    cache warmth.  {e Publish}, for a computed miss: journal record,
    then cache add, then account charge — durability precedes
    visibility.

    There is one multi-request path, the stream: {!eval_stream}
    resolves the whole grid in request order, hands only the misses to
    the scheduler, and publishes each computed miss on the main domain
    as it is delivered.  {!eval_batch} is a drained stream.  {!eval}
    runs the two steps inline on the calling domain.

    Supervision: an engine can carry a {!Checkpoint.t} journal — a
    persistent second cache level that makes completed evaluations
    durable so an interrupted campaign resumes bit-identically — and
    a deadline, enforced cooperatively by cancellation polls inside
    the simulator inner loop.  A per-stream deadline that fires
    surfaces as the typed denial {!Timed_out} (counted in
    [engine.deadline.hit]), never as a hang. *)

type t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?checkpoint:Checkpoint.t ->
  ?deadline_s:float ->
  unit ->
  t
(** [jobs] evaluation lanes (default 1 = sequential backend; [n >= 2]
    spawns [n - 1] worker domains and the caller participates);
    [cache] (default true) fronts evaluation with an LRU of
    [cache_capacity] (default 4096) results.  [checkpoint] journals
    every completed evaluation and replays journalled ones
    (caller-owned: the engine never closes it).  [deadline_s] arms an
    engine-wide deadline, measured from this call, that cancels any
    in-flight evaluation once it passes. *)

val jobs : t -> int
val cache_enabled : t -> bool
val checkpoint : t -> Checkpoint.t option

val shutdown : t -> unit
(** Join the worker pool (tests); also registered at process exit.
    Does not close the checkpoint — its owner does. *)

val configure :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?checkpoint:Checkpoint.t ->
  ?deadline_s:float ->
  unit ->
  unit
(** Replace the process-global default engine — the CLI calls this once
    from [--jobs] / [--no-cache] / [--checkpoint] / [--deadline] before
    running a workload. *)

val default : unit -> t
(** The process-global engine ([jobs = 1], cache on, until
    {!configure} says otherwise). *)

(** Trial accounting, engine-side: an account accumulates the actual
    bench-trial cost of every evaluation charged to it, and optionally
    enforces a hard limit (the oracle's watchdog).  Domain-safe: the
    odometer is atomic, so a single account can be shared across a
    parallel batch without losing charges. *)
module Account : sig
  type t

  val make : ?limit:int -> unit -> t
  val spent : t -> int
  val limit : t -> int option
  val charge : t -> int -> unit
  val exhausted : t -> bool
end

(** Why an evaluation was refused rather than run: the account's hard
    budget was already spent, or the deadline passed before the
    simulator finished. *)
type denial =
  | Budget_exhausted of {
      spent : int;
      limit : int;
    }
  | Timed_out of { deadline_s : float }

val eval : ?engine:t -> ?account:Account.t -> Request.t -> Metrics.Spec.measurement
(** Evaluate one request: resolve, else compute and publish, inline on
    the calling domain. *)

val eval_batch :
  ?engine:t -> ?account:Account.t -> Request.t list -> Metrics.Spec.measurement list
(** Evaluate a batch — [stream_drain (eval_stream reqs)]; results come
    back in request order, bit-identical across backends and cache
    states.  Duplicate keys inside one batch are all cache misses and
    are all computed. *)

(** {1 Streaming evaluation (DESIGN §14)}

    [eval_stream] resolves the whole grid up front — one cache lookup
    per keyed request, in request order, before any journal lookup or
    compute — and hands only the misses to the scheduler, stably
    sorted by {!Request.locality} so requests that share a receiver
    front half run back to back.  {!stream_next} delivers
    [(index, measurement)] pairs: hits first, in request order, then
    misses as lanes finish them, out of order, so a straggler never
    gates the rest of the grid.  Each computed
    miss is published (journal, cache, account) on the main domain at
    delivery.  Reassembling by index ({!stream_drain}) is bit-identical
    for any lane count.

    One stream owns the engine's pool at a time: evaluations and
    streams issued from inside the stream's own items (nested
    calibrations, &c.) resolve the same way but compute inline on the
    calling lane.  Off the main domain a stream has no cache and no
    pool and evaluates each request like {!eval}, one per pull.  A
    stream must be consumed on the domain that opened it, and either
    drained to [Ok None] / an [Error] or explicitly {!stream_abort}ed
    — abandoning it leaves the pool occupied. *)

type stream

val eval_stream :
  ?engine:t -> ?account:Account.t -> ?deadline_s:float -> Request.t list -> stream
(** Submit the grid and return immediately.  [deadline_s] bounds the
    whole stream (seconds from now): once it fires, {!stream_next}
    aborts the remaining work and returns (stickily)
    [Error (Timed_out _)], counting [engine.deadline.hit]; completions
    delivered before the deadline are already journalled and cached,
    and resolved hits never time out.  Without it, an engine-wide
    deadline surfaces from {!stream_next} as the raw cancellation
    exception. *)

val stream_next : stream -> ((int * Metrics.Spec.measurement) option, denial) result
(** Next completed evaluation, or [Ok None] once all have been
    delivered (or after {!stream_abort}).  Blocks only when every
    remaining item is in flight on a worker lane; with no workers the
    calling domain computes one item per pull, in locality order
    (index order among requests of equal {!Request.locality}). *)

val stream_drain : stream -> (Metrics.Spec.measurement list, denial) result
(** Consume to the end and return all measurements in request order —
    including ones already delivered through {!stream_next}.  Raises
    [Invalid_argument] on an aborted stream. *)

val stream_abort : stream -> unit
(** Drop undelivered work (queued items are discarded, in-flight ones
    finish but are neither journalled nor cached — only delivery
    publishes) and release the pool.  Idempotent. *)

val map_jobs : ?engine:t -> (int -> 'a) -> int -> 'a list
(** [map_jobs f n] runs [f i] for [i < n] on the engine's lanes as one
    streamed job and returns the results in index order — job-level
    streaming for fan-outs that are not request evaluations (die
    calibrations, attack trials).  [f] may call back into the engine:
    on the main lane such calls compute inline; on worker lanes they
    take the usual off-main path.  Sequential engines (and nested
    calls) run [List.init n f]. *)

val eval_guarded :
  ?engine:t -> account:Account.t -> Request.t -> (Metrics.Spec.measurement * int, denial) result
(** The budget watchdog: refuse (and count [engine.denied]) once the
    account is exhausted, otherwise evaluate like {!eval} and charge
    the actual trial cost, returning it alongside the measurement. *)
