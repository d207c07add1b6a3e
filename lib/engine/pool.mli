(** Sharded work-stealing pool of worker domains for index-parallel
    jobs.

    Built on [Domain]/[Mutex]/[Condition] only.  There is one way to
    run a job: {!submit_stream} posts [f i] for every [i < n] and
    returns a ticket, and the caller consumes completed indices with
    {!next_result} (one at a time, in completion order) or {!drain}
    (all of them).  The calling domain participates as a lane while it
    consumes.  [f] must confine its writes to per-index slots — that is
    what makes the result independent of claim order; a delivered
    index guarantees its slot write is visible to the consumer.

    Scheduling (DESIGN §13): submit deals contiguous index chunks
    round-robin across per-lane run queues (main lane first); a lane
    claims chunks from its own queue and steals from the busiest other
    queue when it drains.  Wakeups are targeted [signal]s — only lanes
    that can make progress are woken — and a wake that finds nothing
    claimable counts [pool.wakeup.spurious].  Each steal counts
    [pool.steal.count].

    Failures: every item runs under one exception handler.  An
    exception raised by [f i] is that item's failure; delivering the
    item discards the rest of the job (the pool is immediately
    reusable) and re-raises it. *)

type t

val create : ?eager:bool -> int -> t
(** [create workers] asks for that many worker domains (>= 1); they
    idle on per-lane condition variables between jobs and are joined
    at process exit.

    Sizing is hardware-aware by default: at most
    [Domain.recommended_domain_count () - 1] workers are actually
    spawned (possibly zero, leaving the stealing caller as the only
    lane).  A worker beyond the machine's available parallelism can
    only timeshare a saturated core, yet its existence taxes every
    stop-the-world minor collection — oversubscription measurably
    *loses* batch throughput, so the surplus simply never exists and
    scaling stays monotone in the requested lane count.
    [~eager:true] spawns the full request regardless; tests and
    benchmarks use it to force worker-lane participation.  Results
    are bit-identical either way — only wall-clock changes. *)

val workers : t -> int
(** Worker domains actually spawned (lanes - 1); at most the request
    passed to {!create}. *)

val max_chunk : int
(** The scheduler's largest submit-time chunk (16), and the unit of
    the submit-time wakeup budget: a default-chunked submit engages at
    most [ceil (n / max_chunk)] lanes, so tiny batches stay on the
    caller's lane instead of waking domains for less than a chunk's
    worth of work. *)

type stats = {
  lanes : int;  (** workers + the participating main lane *)
  busy_lanes : int;  (** lanes running a claimed index right now *)
  job_active : bool;
  queue_depths : int list;  (** queued items per lane, main lane last *)
  steals : int;  (** lifetime stolen chunks *)
}

val stats : t -> stats
(** Instantaneous scheduler snapshot (takes the job mutex briefly;
    queue depths are atomic reads); safe from any domain, used by the
    live monitor.  Scheduling history accumulates in the
    [pool.queue.wait_ns] (post-to-first-claim latency per lane per
    job) and [pool.lane.busy] (occupancy observed at each chunk claim)
    histograms, plus the [pool.steal.count] and
    [pool.wakeup.spurious] counters. *)

(** {1 Jobs (DESIGN §14)}

    One job is in flight at a time — posting over an undrained ticket
    raises [Invalid_argument]. *)

type ticket
(** A job in flight.  Not thread-safe — only the domain that called
    {!submit_stream} (the pool's main lane) may consume it. *)

val submit_stream : ?chunk:int -> t -> (int -> unit) -> int -> ticket
(** [submit_stream t f n] deals items [0..n-1] across the lanes and
    returns immediately.  By default a submit engages only
    [ceil (n / max_chunk)] lanes and spreads [n] evenly over them;
    [chunk] overrides the chunk size and deals across every lane
    (tests and benchmarks that want to force queue traffic). *)

val next_result : ticket -> int option
(** Deliver the next completed index, in completion order.  If nothing
    has completed, the calling domain claims and runs a queued chunk
    itself, and only sleeps when every remaining item is in flight on
    another lane.  Returns [None] once all [n] items have
    been delivered (the pool is then free for the next job) or after
    {!discard}.  Re-raises a failed item's exception on its
    delivery. *)

val drain : ticket -> unit
(** Deliver everything still outstanding.  Raises the first failed item's exception, like
    {!next_result}; raises [Invalid_argument] on a discarded ticket. *)

val discard : ticket -> unit
(** Abort: drop every still-queued item, wait out the in-flight ones,
    and free the pool for the next job.  Undelivered results are lost.
    Idempotent; a no-op on a fully delivered ticket. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; the pool is unusable afterwards. *)
