(* Sharded work-stealing worker pool over Domain/Mutex/Condition — no
   dependencies beyond the stdlib, per the repo's no-new-deps rule.

   The pool runs index-parallel jobs: [submit_stream t f n] posts
   [f i] for every [i] in [0..n-1] and returns a ticket; the caller
   consumes completed indices with [next_result] (one at a time, in
   completion order) or [drain] (all of them).  The calling (main)
   domain participates as a lane while it consumes, so a pool built
   with [create (jobs - 1)] workers gives [jobs] evaluation lanes
   total.  Determinism is the caller's contract: [f] must write result
   [i] to slot [i] only, so claim order never shows in the output.

   Scheduling (DESIGN §13).  The previous design kept one shared claim
   cursor under one pool mutex with [Condition.broadcast] on every
   post and completion; its own histograms (DESIGN §12) showed
   first-claim latency growing past the work-item cost as lanes were
   added.  This design shards the schedule instead:

   - Submit chunks [0..n-1] into contiguous ranges and deals them
     round-robin across per-lane run queues, main lane first so the
     caller always starts on local work.  Each queue has its own mutex
     and condition variable.
   - A lane claims whole chunks from its own queue; when that drains
     it steals a chunk from the busiest other queue.  Items inside a
     claimed chunk run without touching any queue lock.
   - Wakeups are targeted: submit [signal]s exactly the worker lanes
     that received chunks, and each completion [signal]s the one
     consumer.  No broadcast remains on the submit/steal/complete
     path, and a lane that wakes to find nothing claimable counts
     [pool.wakeup.spurious].

   Lock order: [t.m] may be held while taking a lane mutex (stats); a
   lane mutex is never held while taking [t.m].

   Completion (DESIGN §14).  Every item runs under one exception
   handler in [run_chunk]: an exception raised by [f i] is recorded on
   the ticket as that item's failure and re-raised by the consumer
   when it delivers [i].  Completed indices go into one completion
   buffer that the pool owns and reuses across jobs, guarded by [cm];
   a lane appends its index and bumps the job's retire count in the
   same critical section, so once the consumer has seen [n] retired
   items no lane will touch the job again and the buffer is free for
   the next job.  When nothing has completed yet the consumer does
   not idle: it claims and runs a chunk on the main lane like any
   other lane. *)

let steal_counter = Telemetry.Counter.make "pool.steal.count"
let spurious_counter = Telemetry.Counter.make "pool.wakeup.spurious"

(* Scheduling diagnostics (see DESIGN §12/§13): [pool.queue.wait_ns] is
   the latency from job post to each lane's *first* chunk claim of that
   job — direct evidence of how long freshly woken domains take to
   reach work; [pool.lane.busy] is the number of busy lanes observed at
   every chunk claim, i.e. the occupancy the job actually achieved. *)
let queue_wait_hist = Telemetry.Histogram.make "pool.queue.wait_ns"
let lane_busy_hist = Telemetry.Histogram.make "pool.lane.busy"

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* The scheduler's largest submit-time chunk, and the unit of the
   wakeup budget: a submit engages at most ⌈n / max_chunk⌉ lanes, so a
   tiny batch no longer wakes (and GC-taxes) domains that would each
   receive less than a chunk's worth of work. *)
let max_chunk = 16

type lane = {
  lm : Mutex.t;  (* guards [chunks]; [queued] is atomic for racy scans *)
  ready : Condition.t;  (* this lane's private wakeup (workers only) *)
  mutable chunks : (int * int) list;  (* queued [lo, hi) ranges, FIFO *)
  queued : int Atomic.t;  (* items across queued chunks *)
  (* The item under evaluation (-1 idle).  Written only by the owning
     domain; read racily (monitoring-grade) by [stats] and the
     occupancy histogram. *)
  mutable cur : int;
  (* Generation of the lane's last first-claim, owner-private: stamps
     one [pool.queue.wait_ns] observation per lane per job. *)
  mutable claim_gen : int;
}

type t = {
  m : Mutex.t;  (* job lifecycle: post and release *)
  lanes : lane array;  (* slot [workers] is the main lane *)
  mutable job : ticket option;
  mutable generation : int;
  mutable posted_ns : int64;  (* when the current job was posted *)
  mutable shutdown : bool;
  mutable domains : unit Domain.t list;
  steals : int Atomic.t;  (* lifetime stolen chunks, for [stats] *)
  workers : int;  (* worker domains actually spawned (lanes - 1) *)
  (* The completion channel, reused by every job.  [completions] holds
     finished indices in completion order ([pushed] of them);
     [retired] also counts items [discard] dropped unrun, and the job
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
  mutable delivered : int;  (* consumer's read cursor into [completions] *)
  mutable seen : int;  (* [pushed] at the consumer's last look *)
  mutable failed : (int * exn) option;  (* first failing item, under [cm] *)
  mutable closed : bool;  (* job state torn down (drained or discarded) *)
}

let new_lane () =
  {
    lm = Mutex.create ();
    ready = Condition.create ();
    chunks = [];
    queued = Atomic.make 0;
    cur = -1;
    claim_gen = 0;
  }

(* Caller holds [lane.lm]. *)
let pop lane =
  match lane.chunks with
  | [] -> None
  | ((lo, hi) as chunk) :: rest ->
    lane.chunks <- rest;
    ignore (Atomic.fetch_and_add lane.queued (lo - hi));
    Some chunk

(* Claim-site diagnostics, recorded at each chunk claim without any
   shared lock: one wait observation per lane per job, plus the racy
   busy-lane occupancy scan. *)
let observe_claim t lane =
  if lane.claim_gen <> t.generation then begin
    lane.claim_gen <- t.generation;
    Telemetry.Histogram.observe queue_wait_hist
      (Int64.to_float (Int64.sub (now_ns ()) t.posted_ns))
  end;
  let busy = ref 0 in
  Array.iter (fun l -> if l.cur >= 0 then incr busy) t.lanes;
  Telemetry.Histogram.observe lane_busy_hist (float_of_int !busy)

(* Steal one chunk for [thief]: scan the other queues racily for the
   busiest, then pop under that queue's own mutex (re-checking, since
   the owner may have drained it meanwhile).  One pass over descending
   candidates is enough — a miss means the work is in flight, not
   queued: queues only grow at submit. *)
let steal t thief =
  let best = ref None in
  Array.iter
    (fun lane ->
      if lane != thief then
        let q = Atomic.get lane.queued in
        if q > 0 then
          match !best with
          | Some (_, bq) when bq >= q -> ()
          | _ -> best := Some (lane, q))
    t.lanes;
  match !best with
  | None -> None
  | Some (victim, _) ->
    Mutex.lock victim.lm;
    let chunk = pop victim in
    Mutex.unlock victim.lm;
    (match chunk with
    | Some _ ->
      Telemetry.Counter.incr steal_counter;
      ignore (Atomic.fetch_and_add t.steals 1)
    | None -> ());
    chunk

(* Next chunk for [lane]: own queue first, then steal. *)
let get_work t lane =
  Mutex.lock lane.lm;
  let own = pop lane in
  Mutex.unlock lane.lm;
  match own with
  | Some chunk ->
    observe_claim t lane;
    Some chunk
  | None -> (
    match steal t lane with
    | Some chunk ->
      observe_claim t lane;
      Some chunk
    | None -> None)

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

(* Run a claimed range.  No queue lock is held while items execute;
   this handler is the pool's only exception boundary — whatever [f i]
   raises becomes that item's failure, so no exception escapes into a
   lane's loop. *)
let run_chunk t tk lane (lo, hi) =
  for i = lo to hi - 1 do
    lane.cur <- i;
    match tk.f i with
    | () -> complete t tk i None
    | exception e -> complete t tk i (Some e)
  done;
  lane.cur <- -1

let worker_loop t lane =
  let running = ref true in
  while !running do
    match if t.shutdown then None else get_work t lane with
    | Some chunk -> (
      match t.job with
      | Some tk -> run_chunk t tk lane chunk
      | None -> () (* unreachable: chunks never outlive their job *))
    | None ->
      (* Nothing local, nothing stealable: sleep on the private
         condition until a submit deals this lane new chunks (or
         shutdown).  Queues only grow at submit, which signals this
         lane, so sleeping cannot strand claimable work. *)
      Mutex.lock lane.lm;
      if lane.chunks = [] && not t.shutdown then begin
        Condition.wait lane.ready lane.lm;
        if lane.chunks = [] && not t.shutdown then
          Telemetry.Counter.incr spurious_counter
      end;
      if t.shutdown then running := false;
      Mutex.unlock lane.lm
  done

let shutdown t =
  Mutex.lock t.m;
  if t.shutdown then Mutex.unlock t.m
  else begin
    t.shutdown <- true;
    let domains = t.domains in
    t.domains <- [];
    Mutex.unlock t.m;
    (* Targeted wakeups even here: each sleeping worker idles on its
       own condition variable. *)
    Array.iteri
      (fun slot lane ->
        if slot < t.workers then begin
          Mutex.lock lane.lm;
          Condition.signal lane.ready;
          Mutex.unlock lane.lm
        end)
      t.lanes;
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
   workers — possibly zero, leaving the stealing caller as the only
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
      lanes = Array.init (workers + 1) (fun _ -> new_lane ());
      job = None;
      generation = 0;
      posted_ns = 0L;
      shutdown = false;
      domains = [];
      steals = Atomic.make 0;
      workers;
      cm = Mutex.create ();
      cready = Condition.create ();
      waiting = false;
      completions = [||];
      pushed = 0;
      retired = 0;
    }
  in
  t.domains <- List.init workers (fun slot -> Domain.spawn (fun () -> worker_loop t t.lanes.(slot)));
  (* Idle workers block on their lane condition; make sure process exit
     does not hang waiting for them. *)
  at_exit (fun () -> shutdown t);
  t

let workers t = t.workers

type stats = {
  lanes : int;
  busy_lanes : int;
  job_active : bool;
  queue_depths : int list;
  steals : int;
}

let stats t =
  Mutex.lock t.m;
  let busy = ref 0 in
  Array.iter (fun l -> if l.cur >= 0 then incr busy) t.lanes;
  let s =
    {
      lanes = t.workers + 1;
      busy_lanes = !busy;
      job_active = t.job <> None;
      queue_depths = Array.to_list (Array.map (fun l -> Atomic.get l.queued) t.lanes);
      steals = Atomic.get t.steals;
    }
  in
  Mutex.unlock t.m;
  s

(* Deal [0..n-1] into contiguous chunks round-robin across the first
   [lanes_cap] lanes in deal order (main lane first, so the caller's
   first claim is always local).  Chunks are dealt from the last one
   down, so each lane's list comes out in index order without an
   append per chunk; every queue is empty between jobs.  Returns which
   lanes received work. *)
let distribute (t : t) n chunk ~lanes_cap =
  let lanes = Array.length t.lanes in
  let use = min lanes (max 1 lanes_cap) in
  let dealt = Array.make lanes [] in
  let items = Array.make lanes 0 in
  for k = ((n + chunk - 1) / chunk) - 1 downto 0 do
    let slot = (t.workers + (k mod use)) mod lanes in
    let lo = k * chunk in
    let hi = min n (lo + chunk) in
    dealt.(slot) <- (lo, hi) :: dealt.(slot);
    items.(slot) <- items.(slot) + (hi - lo)
  done;
  Array.iteri
    (fun slot chunks ->
      if chunks <> [] then begin
        let lane = t.lanes.(slot) in
        Mutex.lock lane.lm;
        lane.chunks <- chunks;
        ignore (Atomic.fetch_and_add lane.queued items.(slot));
        Mutex.unlock lane.lm
      end)
    dealt;
  items

(* Batch-size-aware submit layout.  By default a submit engages only
   ⌈n / max_chunk⌉ lanes — waking a domain costs a condvar signal, an
   OS reschedule and a per-domain share of every stop-the-world minor
   GC (DESIGN §13), which is a bad trade for less than a chunk's worth
   of work — and sizes chunks to spread [n] evenly over exactly those
   lanes.  Large batches degenerate to the old layout (every lane, 16
   a chunk); small ones stay on the caller's lane and wake nobody.
   Stealing still rebalances inside the engaged set if the items turn
   out to be skewed.  An explicit [?chunk] override keeps the
   every-lane deal so tests and benchmarks can force queue traffic. *)
let job_layout (t : t) n chunk =
  let lanes = Array.length t.lanes in
  match chunk with
  | Some c -> (max 1 c, lanes)
  | None ->
    let cap = min lanes (max 1 ((n + max_chunk - 1) / max_chunk)) in
    (max 1 (min max_chunk ((n + cap - 1) / cap)), cap)

(* Post the job and deal its chunks.  Exactly one job may be in
   flight: posting over an undrained ticket is a caller bug, reported
   rather than deadlocked on. *)
let submit_stream ?chunk (t : t) f n =
  let tk =
    { pool = t; f; n = max n 0; delivered = 0; seen = 0; failed = None; closed = n <= 0 }
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
    t.job <- Some tk;
    t.generation <- t.generation + 1;
    t.posted_ns <- now_ns ();
    Mutex.unlock t.m;
    (* No lane touches the channel between jobs, so resetting it here,
       before any chunk is dealt, cannot race. *)
    Mutex.lock t.cm;
    if Array.length t.completions < n then t.completions <- Array.make n 0;
    t.pushed <- 0;
    t.retired <- 0;
    Mutex.unlock t.cm;
    let chunk, lanes_cap = job_layout t n chunk in
    let items = distribute t n chunk ~lanes_cap in
    (* Targeted wakeups: only the worker lanes that actually received a
       chunk are signalled; everyone else keeps sleeping. *)
    Array.iteri
      (fun slot lane ->
        if slot < t.workers && items.(slot) > 0 then Condition.signal lane.ready)
      t.lanes
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

(* Abort: drop every still-queued chunk (retiring the dropped items
   unrun), then wait out the in-flight ones — each signals [cready] as
   it lands.  Undelivered results are discarded; the pool is ready for
   the next job on return.  Idempotent, and a no-op after the ticket
   drained naturally. *)
let discard tk =
  if not tk.closed then begin
    let t = tk.pool in
    let dropped = ref 0 in
    Array.iter
      (fun lane ->
        Mutex.lock lane.lm;
        let draining = ref true in
        while !draining do
          match pop lane with
          | Some (lo, hi) -> dropped := !dropped + (hi - lo)
          | None -> draining := false
        done;
        Mutex.unlock lane.lm)
      t.lanes;
    Mutex.lock t.cm;
    t.retired <- t.retired + !dropped;
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
      (* Nothing completed yet — be a lane rather than a bystander. *)
      let main = t.lanes.(t.workers) in
      (match get_work t main with
      | Some chunk -> run_chunk t tk main chunk
      | None ->
        (* Everything left is in flight on other lanes: sleep until a
           completion lands. *)
        Mutex.lock t.cm;
        await t (fun () -> t.pushed > tk.delivered);
        Mutex.unlock t.cm);
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
