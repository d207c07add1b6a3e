(** Pool of worker domains for index-parallel jobs, scheduled by one
    atomic claim cursor per job.

    Built on [Domain]/[Mutex]/[Condition] only.  There is one way to
    run a job: {!submit_stream} posts [f i] for every [i < n] and
    returns a ticket, and the caller consumes completed indices with
    {!next_result} (one at a time, in completion order) or {!drain}
    (all of them).  The calling domain participates as a lane while it
    consumes.  [f] must confine its writes to per-index slots — that is
    what makes the result independent of claim order; a delivered
    index guarantees its slot write is visible to the consumer.

    Scheduling (DESIGN §13): every lane — each worker domain and the
    consuming caller — claims the job's next contiguous chunk of
    indices from one atomic cursor, so chunks are claimed in submission
    order and a lane that finishes early simply claims more.  Idle
    workers sleep on one condition variable; submit signals only as
    many as the job has use for, and a wake that finds nothing
    claimable counts [pool.wakeup.spurious].

    Failures: every item runs under one exception handler.  An
    exception raised by [f i] is that item's failure; delivering the
    item discards the rest of the job (the pool is immediately
    reusable) and re-raises it. *)

type t

val create : ?eager:bool -> int -> t
(** [create workers] asks for that many worker domains (>= 1); they
    idle on a shared condition variable between jobs and are joined
    at process exit.

    Sizing is hardware-aware by default: at most
    [Domain.recommended_domain_count () - 1] workers are actually
    spawned (possibly zero, leaving the claiming caller as the only
    lane).  A worker beyond the machine's available parallelism can
    only timeshare a saturated core, yet its existence taxes every
    stop-the-world minor collection — oversubscription measurably
    *loses* batch throughput, so the surplus simply never exists and
    scaling stays monotone in the requested lane count.
    [~eager:true] spawns the full request regardless; tests and
    benchmarks use it to force worker-lane participation.  Results
    are bit-identical either way — only wall-clock changes. *)

(** Scheduling history accumulates in the [pool.queue.wait_ns]
    (post-to-first-claim latency per lane per job) and
    [pool.lane.busy] (occupancy observed at each chunk claim)
    histograms, plus the [pool.wakeup.spurious] counter. *)

(** {1 Jobs (DESIGN §14)}

    One job is in flight at a time — posting over an undrained ticket
    raises [Invalid_argument]. *)

type ticket
(** A job in flight.  Not thread-safe — only the domain that called
    {!submit_stream} (the pool's main lane) may consume it. *)

val submit_stream : ?chunk:int -> t -> (int -> unit) -> int -> ticket
(** [submit_stream t f n] posts items [0..n-1] and returns
    immediately.  By default the job is cut into chunks of at most 16
    indices spread evenly over [ceil (n / 16)] lanes, and only that
    many lanes (the caller's included) are woken; [chunk] overrides the
    chunk size and wakes every lane (tests and benchmarks that want to
    force claim traffic). *)

val next_result : ticket -> int option
(** Deliver the next completed index, in completion order.  If nothing
    has completed, the calling domain claims and runs the next chunk
    itself, and only sleeps when every remaining item is in flight on
    another lane.  Returns [None] once all [n] items have
    been delivered (the pool is then free for the next job) or after
    {!discard}.  Re-raises a failed item's exception on its
    delivery. *)

val drain : ticket -> unit
(** Deliver everything still outstanding.  Raises the first failed item's exception, like
    {!next_result}; raises [Invalid_argument] on a discarded ticket. *)

val discard : ticket -> unit
(** Abort: retire every still-unclaimed item unrun, wait out the
    in-flight ones, and free the pool for the next job.  Undelivered
    results are lost.  Idempotent; a no-op on a fully delivered
    ticket. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; the pool is unusable afterwards. *)
