(* Worker pool over Domain/Mutex/Condition with one atomic claim cursor
   per job — no dependencies beyond the stdlib, per the repo's
   no-new-deps rule.

   The pool runs index-parallel jobs: [submit_stream t f n] posts
   [f i] for every [i] in [0..n-1] and returns a ticket; the caller
   consumes completed indices with [next_result] (one at a time, in
   completion order) or [drain] (all of them).  The calling (main)
   domain participates as a lane while it consumes, so a pool built
   with [create (jobs - 1)] workers gives [jobs] evaluation lanes
   total.  Determinism is the caller's contract: [f] must write result
   [i] to slot [i] only, so claim order never shows in the output.

   Scheduling (DESIGN §13).  Each ticket carries one [int Atomic.t]
   cursor, and a lane claims its next contiguous chunk with
   [Atomic.fetch_and_add cursor chunk]; a lane that draws an index at
   or past [n] is done with the job.  Chunks are claimed in submission
   order, so a caller that sorts its items for locality (DESIGN §15)
   keeps back-to-back runs, and a lane stuck on a slow chunk never
   holds claimable work hostage: the others keep drawing from the same
   cursor.  Idle workers sleep on one shared condition variable under
   the job mutex; submit signals at most as many of them as the job
   has use for, and a worker that wakes to find nothing claimable
   counts [pool.wakeup.spurious].

   Completion (DESIGN §14).  Every item runs under one exception
   handler in [run_next]: an exception raised by [f i] is recorded on
   the ticket as that item's failure and re-raised by the consumer
   when it delivers [i].  Completed indices go into one completion
   buffer that the pool owns and reuses across jobs, guarded by [cm];
   a lane appends its index and bumps the job's retire count in the
   same critical section, so once the consumer has seen [n] retired
   items no lane will touch the job again and the buffer is free for
   the next job.  When nothing has completed yet the consumer does
   not idle: it claims and runs a chunk on the main lane like any
   other lane. *)

let spurious_counter = Telemetry.Counter.make "pool.wakeup.spurious"

(* Scheduling diagnostics (see DESIGN §12/§13): [pool.queue.wait_ns] is
   the latency from job post to each lane's *first* chunk claim of that
   job — direct evidence of how long freshly woken domains take to
   reach work; [pool.lane.busy] is the number of busy lanes observed at
   every chunk claim, i.e. the occupancy the job actually achieved. *)
let queue_wait_hist = Telemetry.Histogram.make "pool.queue.wait_ns"
let lane_busy_hist = Telemetry.Histogram.make "pool.lane.busy"

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* The largest default chunk, and the unit of the wakeup budget: a
   submit signals at most ⌈n / max_chunk⌉ - 1 workers, so a tiny batch
   does not wake (and GC-tax) domains that would each get less than a
   chunk's worth of work. *)
let max_chunk = 16

type t = {
  m : Mutex.t;  (* job lifecycle and worker sleep *)
  work : Condition.t;  (* idle workers wait here for claimable work *)
  mutable job : ticket option;
  mutable generation : int;
  mutable posted_ns : int64;  (* when the current job was posted *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  workers : int;  (* worker domains spawned; lane slot [workers] is the caller *)
  (* Per lane: the item under evaluation (-1 idle), written only by the
     owning domain and read racily by the occupancy histogram; and the
     generation of the lane's last first-claim, owner-private, which
     stamps one [pool.queue.wait_ns] observation per lane per job. *)
  cur : int array;
  claim_gen : int array;
  (* The completion channel, reused by every job.  [completions] holds
     finished indices in completion order ([pushed] of them);
     [retired] also counts items [discard] retired unrun, and the job
     is over once it reaches the job's [n]. *)
  cm : Mutex.t;
  cready : Condition.t;  (* the consumer's wakeup *)
  mutable waiting : bool;  (* the consumer is blocked on [cready] *)
  mutable completions : int array;  (* grown to the largest job seen *)
  mutable pushed : int;
  mutable retired : int;
}

(* A job in flight.  Only the domain that called [submit_stream] (the
   pool's main lane) may consume it. *)
and ticket = {
  pool : t;
  f : int -> unit;
  n : int;
  chunk : int;
  cursor : int Atomic.t;  (* first unclaimed index; may overshoot [n] *)
  mutable delivered : int;  (* consumer's read cursor into [completions] *)
  mutable seen : int;  (* [pushed] at the consumer's last look *)
  mutable failed : (int * exn) option;  (* first failing item, under [cm] *)
  mutable closed : bool;  (* job state torn down (drained or discarded) *)
}

(* Racy count of lanes running an item. *)
let busy_lanes t =
  let busy = ref 0 in
  for slot = 0 to t.workers do
    if t.cur.(slot) >= 0 then incr busy
  done;
  !busy

(* Claim-site diagnostics, recorded at each chunk claim without any
   shared lock: one wait observation per lane per job, plus the
   busy-lane occupancy scan. *)
let observe_claim t slot =
  if t.claim_gen.(slot) <> t.generation then begin
    t.claim_gen.(slot) <- t.generation;
    Telemetry.Histogram.observe queue_wait_hist
      (Int64.to_float (Int64.sub (now_ns ()) t.posted_ns))
  end;
  Telemetry.Histogram.observe lane_busy_hist (float_of_int (busy_lanes t))

(* Publish item [i] as completed.  Appending the index and retiring
   the item happen in one critical section: the consumer treats
   [retired = n] as proof that no lane will touch the job (or the
   shared buffer) again. *)
let complete t tk i failure =
  Mutex.lock t.cm;
  (match failure with
  | Some e when tk.failed = None -> tk.failed <- Some (i, e)
  | _ -> ());
  t.completions.(t.pushed) <- i;
  t.pushed <- t.pushed + 1;
  t.retired <- t.retired + 1;
  if t.waiting then Condition.signal t.cready;
  Mutex.unlock t.cm

(* Claim the job's next chunk for lane [slot] and run it; false once
   the cursor has passed [n].  A claim below [n] means those items are
   not yet retired, so the job (and the completion buffer) is still
   this ticket's.  This handler is the pool's only exception boundary
   — whatever [f i] raises becomes that item's failure, so no
   exception escapes into a lane's loop. *)
let run_next t tk slot =
  let lo = Atomic.fetch_and_add tk.cursor tk.chunk in
  if lo >= tk.n then false
  else begin
    observe_claim t slot;
    for i = lo to min tk.n (lo + tk.chunk) - 1 do
      t.cur.(slot) <- i;
      match tk.f i with
      | () -> complete t tk i None
      | exception e -> complete t tk i (Some e)
    done;
    t.cur.(slot) <- -1;
    true
  end

let unclaimed tk = Atomic.get tk.cursor < tk.n

(* Idle workers sleep until the posted job has unclaimed items.  The
   job is checked under [m], which submit holds while it signals, so a
   worker busy elsewhere at signal time still finds the job before it
   next sleeps. *)
let worker_loop t slot =
  Mutex.lock t.m;
  while not t.shutdown do
    match t.job with
    | Some tk when unclaimed tk ->
      Mutex.unlock t.m;
      while run_next t tk slot do
        ()
      done;
      Mutex.lock t.m
    | _ -> (
      Condition.wait t.work t.m;
      (* Woken with nothing to claim: no job, or one whose cursor the
         other lanes have already spent. *)
      match t.job with
      | Some tk when unclaimed tk -> ()
      | _ -> if not t.shutdown then Telemetry.Counter.incr spurious_counter)
  done;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  if t.shutdown then Mutex.unlock t.m
  else begin
    t.shutdown <- true;
    let domains = t.domains in
    t.domains <- [];
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join domains
  end

(* Hardware-aware sizing: a worker domain beyond the machine's
   available parallelism can never speed a batch up — it can only
   timeshare a core the other lanes already saturate — yet its mere
   existence taxes every stop-the-world minor collection, which must
   synchronise with all live domains (even ones parked in
   [Condition.wait], via their backup threads; on an oversubscribed
   single-core host that synchronisation rides the OS scheduler and
   was measured to double an 8-item batch, DESIGN §13).  So by
   default [create] spawns at most [recommended_domain_count () - 1]
   workers — possibly zero, leaving the claiming caller as the only
   lane — and the requested surplus simply never exists.  [~eager]
   spawns the full request regardless, for tests and benchmarks that
   need real worker lanes. *)
let create ?(eager = false) workers =
  if workers <= 0 then invalid_arg "Pool.create: need at least one worker";
  let workers =
    if eager then workers
    else min workers (max 0 (Domain.recommended_domain_count () - 1))
  in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      job = None;
      generation = 0;
      posted_ns = 0L;
      shutdown = false;
      domains = [];
      workers;
      cur = Array.make (workers + 1) (-1);
      claim_gen = Array.make (workers + 1) 0;
      cm = Mutex.create ();
      cready = Condition.create ();
      waiting = false;
      completions = [||];
      pushed = 0;
      retired = 0;
    }
  in
  t.domains <- List.init workers (fun slot -> Domain.spawn (fun () -> worker_loop t slot));
  (* Idle workers block on [work]; make sure process exit does not
     hang waiting for them. *)
  at_exit (fun () -> shutdown t);
  t

(* Batch-size-aware layout: (chunk size, lanes the job has use for).
   By default a job has use for ⌈n / max_chunk⌉ lanes — waking a
   domain costs a condvar signal, an OS reschedule and a per-domain
   share of every stop-the-world minor GC (DESIGN §13), which is a bad
   trade for less than a chunk's worth of work — and its chunks spread
   [n] evenly over exactly those lanes.  Large batches use every lane,
   16 a chunk; small ones stay on the caller's lane and wake nobody.
   An explicit [?chunk] override uses every lane, so tests and
   benchmarks can force claim traffic. *)
let job_layout (t : t) n chunk =
  let lanes = t.workers + 1 in
  match chunk with
  | Some c -> (max 1 c, lanes)
  | None ->
    let cap = min lanes (max 1 ((n + max_chunk - 1) / max_chunk)) in
    (max 1 (min max_chunk ((n + cap - 1) / cap)), cap)

(* Post the job and wake the workers it has use for.  Exactly one job
   may be in flight: posting over an undrained ticket is a caller bug,
   reported rather than deadlocked on. *)
let submit_stream ?chunk (t : t) f n =
  let n = max n 0 in
  let chunk, lanes = job_layout t n chunk in
  let tk =
    {
      pool = t;
      f;
      n;
      chunk;
      cursor = Atomic.make 0;
      delivered = 0;
      seen = 0;
      failed = None;
      closed = (n = 0);
    }
  in
  if n > 0 then begin
    Mutex.lock t.m;
    if t.shutdown then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit_stream: pool is shut down"
    end;
    if t.job <> None then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit_stream: a job is already in flight (drain or discard it first)"
    end;
    (* No lane touches the channel between jobs, and none can claim
       before the job is published below, so resetting it here cannot
       race. *)
    Mutex.lock t.cm;
    if Array.length t.completions < n then t.completions <- Array.make n 0;
    t.pushed <- 0;
    t.retired <- 0;
    Mutex.unlock t.cm;
    t.job <- Some tk;
    t.generation <- t.generation + 1;
    t.posted_ns <- now_ns ();
    for _ = 1 to min t.workers (lanes - 1) do
      Condition.signal t.work
    done;
    Mutex.unlock t.m
  end;
  tk

(* Clear the pool's job state once no lane can touch it again — every
   item has retired. *)
let release tk =
  let t = tk.pool in
  tk.closed <- true;
  Mutex.lock t.m;
  t.job <- None;
  Mutex.unlock t.m

(* Block on [cready] until [ready ()]; caller holds [t.cm]. *)
let await t ready =
  while not (ready ()) do
    t.waiting <- true;
    Condition.wait t.cready t.cm
  done;
  t.waiting <- false

(* Abort: move the cursor to [n] so nothing more can be claimed, retire
   the items from the first unclaimed one up to [n] unrun, then wait
   out the in-flight ones — each signals [cready] as it lands.
   Undelivered results are discarded; the pool is ready for the next
   job on return.  Idempotent, and a no-op after the ticket drained
   naturally. *)
let discard tk =
  if not tk.closed then begin
    let t = tk.pool in
    let first = Atomic.exchange tk.cursor tk.n in
    Mutex.lock t.cm;
    t.retired <- t.retired + max 0 (tk.n - first);
    await t (fun () -> t.retired >= tk.n);
    Mutex.unlock t.cm;
    release tk
  end

(* The one consumer loop behind [next_result] and [drain]: the next
   completed index, or -1 once every item has been delivered (or the
   ticket was discarded).  Entries below [seen] were written before
   the consumer's last look under [cm], so they are read without the
   lock.  A failed item ends the job: the rest is discarded so the
   pool is reusable, then the item's exception is re-raised. *)
let rec deliver tk =
  if tk.closed then -1
  else begin
    let t = tk.pool in
    if tk.delivered >= tk.seen then begin
      Mutex.lock t.cm;
      tk.seen <- t.pushed;
      Mutex.unlock t.cm
    end;
    if tk.delivered < tk.seen then begin
      let i = t.completions.(tk.delivered) in
      tk.delivered <- tk.delivered + 1;
      if tk.delivered >= tk.n then release tk;
      (match tk.failed with
      | Some (j, e) when j = i ->
        discard tk;
        raise e
      | _ -> ());
      i
    end
    else begin
      (* Nothing completed yet — be a lane rather than a bystander.
         Once the cursor is spent, everything left is in flight on
         other lanes: sleep until a completion lands. *)
      if not (run_next t tk t.workers) then begin
        Mutex.lock t.cm;
        await t (fun () -> t.pushed > tk.delivered);
        Mutex.unlock t.cm
      end;
      deliver tk
    end
  end

let next_result tk = match deliver tk with -1 -> None | i -> Some i

let drain tk =
  if tk.closed && tk.delivered < tk.n then
    invalid_arg "Pool.drain: ticket was discarded before completion";
  while deliver tk >= 0 do
    ()
  done
