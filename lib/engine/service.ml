type backend =
  | Seq
  | Domains of Pool.t

type t = {
  cache : Cache.t option;
  backend : backend;
  jobs : int;
  checkpoint : Checkpoint.t option;
  deadline : Telemetry.Cancel.t option;
  (* Main-domain re-entrancy latch: true while a streaming job owns
     the pool.  Work running *inside* the stream (a calibration nested
     in a parallelised study, say) that calls back into this engine
     must not try to post a second pool job — with the latch up,
     nested batches and streams compute inline instead.  Only the main
     domain reads or writes it. *)
  mutable streaming : bool;
}

let default_cache_capacity = 4096

let create ?(jobs = 1) ?(cache = true) ?(cache_capacity = default_cache_capacity) ?checkpoint
    ?deadline_s () =
  if jobs <= 0 then invalid_arg "Service.create: jobs must be positive";
  let backend = if jobs = 1 then Seq else Domains (Pool.create (jobs - 1)) in
  {
    cache = (if cache then Some (Cache.create ~capacity:cache_capacity) else None);
    backend;
    jobs;
    checkpoint;
    deadline = Option.map (fun s -> Telemetry.Cancel.with_deadline s) deadline_s;
    streaming = false;
  }

let jobs t = t.jobs
let cache_enabled t = t.cache <> None
let checkpoint t = t.checkpoint

let shutdown t = match t.backend with Seq -> () | Domains pool -> Pool.shutdown pool

(* Process-global default engine, configured once by the CLI from
   --jobs / --no-cache / --checkpoint / --deadline and used implicitly
   by every call site that does not pass ?engine. *)
let default_engine : t option ref = ref None

let configure ?jobs ?cache ?cache_capacity ?checkpoint ?deadline_s () =
  Option.iter shutdown !default_engine;
  let t = create ?jobs ?cache ?cache_capacity ?checkpoint ?deadline_s () in
  default_engine := Some t;
  Telemetry.Log.info
    ~fields:
      [
        ("jobs", string_of_int t.jobs);
        ("cache", string_of_bool (t.cache <> None));
        ("checkpoint", match t.checkpoint with Some cp -> Checkpoint.path cp | None -> "-");
        ("deadline_s", match deadline_s with Some d -> Printf.sprintf "%g" d | None -> "-");
      ]
    "engine: configured"

let default () =
  match !default_engine with
  | Some t -> t
  | None ->
    let t = create () in
    default_engine := Some t;
    t

let engine_of = function Some t -> t | None -> default ()

(* Live-monitor provider: expose the default engine's cache occupancy,
   pool lane state, checkpoint size and deadline remaining as gauges on
   every scrape/heartbeat.  Reads are monitoring-grade: Pool.stats takes
   the pool mutex, the rest are racy-but-atomic field reads. *)
let monitor_gauges () =
  match !default_engine with
  | None -> []
  | Some t ->
    let cache_g =
      match t.cache with
      | None -> []
      | Some c ->
        [
          ("engine_cache_entries", float_of_int (Cache.length c));
          ("engine_cache_entries_peak", float_of_int (Cache.peak c));
          ("engine_cache_capacity", float_of_int (Cache.capacity c));
        ]
    in
    let pool_g =
      match t.backend with
      | Seq -> [ ("pool_lanes", 1.0); ("pool_lanes_busy", 0.0) ]
      | Domains p ->
        let s = Pool.stats p in
        [
          ("pool_lanes", float_of_int s.Pool.lanes);
          ("pool_lanes_busy", float_of_int s.Pool.busy_lanes);
          ("pool_steals", float_of_int s.Pool.steals);
        ]
        @ List.mapi
            (fun i d -> (Printf.sprintf "pool_queue_depth_lane%d" i, float_of_int d))
            s.Pool.queue_depths
    in
    let deadline_g =
      match t.deadline with
      | None -> []
      | Some tok -> (
        match Telemetry.Cancel.remaining_s tok with
        | Some r -> [ ("engine_deadline_remaining_seconds", r) ]
        | None -> [])
    in
    let cp_g =
      match t.checkpoint with
      | None -> []
      | Some cp -> [ ("engine_checkpoint_entries", float_of_int (Checkpoint.entries cp)) ]
    in
    (("engine_jobs", float_of_int t.jobs) :: cache_g) @ pool_g @ deadline_g @ cp_g

let () = Telemetry.Monitor.register "engine" monitor_gauges

let eval_counter = Telemetry.Counter.make "engine.evals"
let stream_counter = Telemetry.Counter.make "engine.streams"
let denied_counter = Telemetry.Counter.make "engine.denied"
let deadline_counter = Telemetry.Counter.make "engine.deadline.hit"

(* Same registered counter as Metrics.Measure's odometer (Counter.make
   is idempotent by name): cache hits replay their trial cost here so
   the global accounting is independent of cache warmth. *)
let trials_counter = Telemetry.Counter.make "measure.trials"

(* The cache and the pool are main-domain structures; an eval issued
   from a worker domain (e.g. a calibration nested inside a
   parallelised study) falls back to inline sequential compute (plus
   the checkpoint, which is mutex-protected and domain-safe). *)
let main_domain = Domain.self ()
let on_main () = Domain.self () = main_domain

(* The actual simulate-and-measure, a pure function of the request.  A
   fresh bench per request keeps the per-request trial cost observable
   without racing on global counters; unrequested fields come back as
   nan / None. *)
let compute (req : Request.t) : Cache.value =
  Telemetry.Counter.incr eval_counter;
  let rx = Request.receiver req.die req.standard in
  let bench = Metrics.Measure.create ~p_dbm:req.p_dbm rx in
  let blank = { Metrics.Spec.snr_mod_db = nan; snr_rx_db = nan; sfdr_db = None } in
  let measurement =
    match req.metric with
    | Request.Snr_mod -> { blank with snr_mod_db = Metrics.Measure.snr_mod_db bench req.config }
    | Request.Snr_mod_verified ->
      { blank with snr_mod_db = Metrics.Measure.snr_mod_verified_db bench req.config }
    | Request.Snr_rx { n_fft } ->
      { blank with snr_rx_db = Metrics.Measure.snr_rx_db ~n_fft bench req.config }
    | Request.Snr_rx_at_power { n_fft; p_dbm; gain_code } ->
      { blank with
        snr_rx_db = Metrics.Measure.snr_rx_at_power_db ~n_fft bench req.config ~p_dbm ~gain_code
      }
    | Request.Sfdr -> { blank with sfdr_db = Some (Metrics.Measure.sfdr_db bench req.config) }
    | Request.Full -> Metrics.Measure.full bench req.config
    | Request.Full_verified ->
      (* The oracle's try_key bundle: linearity-verified modulator SNR
         so an injection-locked tank cannot fool the check, then both
         remaining specified performances. *)
      {
        Metrics.Spec.snr_mod_db = Metrics.Measure.snr_mod_verified_db bench req.config;
        snr_rx_db = Metrics.Measure.snr_rx_db bench req.config;
        sfdr_db = Some (Metrics.Measure.sfdr_db bench req.config);
      }
  in
  { Cache.measurement; trial_cost = Metrics.Measure.trial_count bench }

(* Run the simulator under an explicit cancellation token (a per-call
   or engine-wide deadline); with no token, whatever ambient token the
   caller installed still applies through the DLS. *)
let compute_tok ~token req =
  match token with
  | None -> compute req
  | Some tok -> Telemetry.Cancel.with_token tok (fun () -> compute req)

module Account = struct
  type t = {
    spent : int Atomic.t;
    limit : int option;
  }

  let make ?limit () = { spent = Atomic.make 0; limit }
  let spent a = Atomic.get a.spent
  let limit a = a.limit
  let charge a n = ignore (Atomic.fetch_and_add a.spent n)
  let exhausted a = match a.limit with Some l -> Atomic.get a.spent >= l | None -> false
end

type denial =
  | Budget_exhausted of {
      spent : int;
      limit : int;
    }
  | Timed_out of { deadline_s : float }

(* ------------------------------------------------- per-request steps
   The two halves of every evaluation, shared by [eval] and the
   stream core.  [cache] is the engine's cache as seen from the
   calling domain: [None] off the main domain, where only the
   (mutex-protected) journal is reachable. *)

let local_cache t = if on_main () then t.cache else None

(* A hit of either level replays its trial cost, so odometers are
   independent of how a run was cut up and of cache warmth. *)
let replay (value : Cache.value) = Telemetry.Counter.add trials_counter value.Cache.trial_cost

let from_cache cache key =
  match cache with
  | None -> None
  | Some c -> (
    match Cache.find c key with
    | Some value as hit ->
      replay value;
      hit
    | None -> None)

(* A journal hit is published to the cache: the journal is the
   persistent second level behind it. *)
let from_journal t cache key =
  match t.checkpoint with
  | None -> None
  | Some cp -> (
    match Checkpoint.find cp key with
    | Some value as hit ->
      replay value;
      Option.iter (fun c -> Cache.add c key value) cache;
      hit
    | None -> None)

(* Resolve: cache, then journal — no simulator step.  A stream runs
   the two halves as two passes over its grid instead, so every cache
   lookup precedes every journal lookup. *)
let resolve t cache key =
  match from_cache cache key with Some _ as hit -> hit | None -> from_journal t cache key

let charge account (value : Cache.value) =
  match account with Some a -> Account.charge a value.Cache.trial_cost | None -> ()

(* Publish a computed value: journal record, then cache add, then the
   account charge — durability precedes visibility. *)
let publish t cache ?account key value =
  (match key with
  | Some k ->
    Option.iter (fun cp -> Checkpoint.record cp k value) t.checkpoint;
    Option.iter (fun c -> Cache.add c k value) cache
  | None -> ());
  charge account value

let eval_value ~token ?account t req =
  let cache = local_cache t in
  let key = Request.cache_key req in
  let hit = match key with Some k -> resolve t cache k | None -> None in
  match hit with
  | Some value ->
    charge account value;
    value
  | None ->
    let value = compute_tok ~token req in
    publish t cache ?account key value;
    value

let eval ?engine ?account req =
  let t = engine_of engine in
  (eval_value ~token:t.deadline ?account t req).Cache.measurement

(* A cancellation that fired because [tok]'s deadline passed becomes a
   typed [Timed_out] denial; any other cancellation (a SIGINT, an outer
   token) keeps propagating as the exception it is. *)
let timed_out_guard tok deadline_s = function
  | Telemetry.Cancel.Cancelled _ when Telemetry.Cancel.is_set tok ->
    Telemetry.Counter.incr deadline_counter;
    Telemetry.Counter.incr denied_counter;
    Some (Timed_out { deadline_s })
  | _ -> None

(* ---------------------------------------------------------- streaming
   DESIGN §14: the one multi-request path.  The whole request grid is
   resolved up front — one cache lookup per keyed request, in request
   order, then the journal for the rest — and only the misses reach
   the scheduler.  Hits are delivered first, in request order; misses
   are delivered as lanes finish them.  Workers only compute: every
   computed miss is published ([publish]: journal, cache, account) on
   the main domain at delivery, so journal-before-publish holds with a
   single writer.  Delivery order is completion order
   (schedule-dependent); index assembly is what restores determinism.
   Measurement values and trial odometers are schedule-independent;
   the one schedule-dependent thing is the cache's LRU *recency* order
   for the streamed misses, which affects future hit latency only,
   never a value. *)

type stream = {
  values : Cache.value option array;  (* by request index; full once drained *)
  next : unit -> int option;  (* deliver one more index, publishing it *)
  on_stop : unit -> unit;  (* release pool / re-entrancy latch; idempotent *)
  (* Per-stream deadline token and its budget; [None] without
     [?deadline_s], where an engine-wide deadline still cancels
     computes but surfaces as the raw cancellation exception. *)
  deadline : (Telemetry.Cancel.t * float) option;
  mutable stopped : bool;
  mutable aborted : bool;  (* stopped early: drain would be partial *)
  mutable dead : denial option;  (* sticky after a deadline denial *)
}

let eval_stream ?engine ?account ?deadline_s reqs =
  let t = engine_of engine in
  Telemetry.Counter.incr stream_counter;
  let deadline = Option.map (fun d -> (Telemetry.Cancel.with_deadline d, d)) deadline_s in
  let token = match deadline with Some (tok, _) -> Some tok | None -> t.deadline in
  let arr = Array.of_list reqs in
  let n = Array.length arr in
  let values = Array.make n None in
  let mk ?(on_stop = ignore) next =
    { values; next; on_stop; deadline; stopped = false; aborted = false; dead = None }
  in
  let cursor = ref 0 in
  if not (on_main ()) then
    (* Off the main domain there is no cache and no pool: evaluate
       lazily, one request per pull, in index order — exactly [eval]. *)
    mk (fun () ->
        if !cursor >= n then None
        else begin
          let i = !cursor in
          incr cursor;
          values.(i) <- Some (eval_value ~token ?account t arr.(i));
          Some i
        end)
  else begin
    let keys = Array.map Request.cache_key arr in
    (* Every cache lookup precedes every journal lookup and compute, so
       duplicate keys inside one grid are all misses (and all
       computed), whatever the backend. *)
    Array.iteri (fun i key -> Option.iter (fun k -> values.(i) <- from_cache t.cache k) key) keys;
    Array.iteri
      (fun i key ->
        match key with
        | Some k when values.(i) = None -> values.(i) <- from_journal t t.cache k
        | _ -> ())
      keys;
    let hits = ref (List.filter (fun i -> values.(i) <> None) (List.init n Fun.id)) in
    (* Misses run in locality order (stable, so index order within a
       locality): requests sharing a die, standard and gain code share
       the receiver's memoised front half, and run back to back. *)
    let misses =
      List.filter (fun i -> values.(i) = None) (List.init n Fun.id)
      |> List.map (fun i -> (Request.locality arr.(i), i))
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd |> Array.of_list
    in
    let m = Array.length misses in
    let deliver j value =
      let i = misses.(j) in
      publish t t.cache ?account keys.(i) value;
      values.(i) <- Some value;
      Some i
    in
    let with_hits_first next_miss () =
      match !hits with
      | i :: rest ->
        hits := rest;
        Option.iter (charge account) values.(i);
        Some i
      | [] -> next_miss ()
    in
    match t.backend with
    | Domains pool when m > 0 && not t.streaming ->
      (* Hand the scheduler the whole miss grid now; consume
         completions out of order. *)
      let computed = Array.make m None in
      t.streaming <- true;
      let ticket =
        try
          Pool.submit_stream pool
            (fun j -> computed.(j) <- Some (compute_tok ~token arr.(misses.(j))))
            m
        with e ->
          t.streaming <- false;
          raise e
      in
      mk
        ~on_stop:(fun () ->
          Pool.discard ticket;
          t.streaming <- false)
        (with_hits_first (fun () ->
             match Pool.next_result ticket with
             | None -> None
             | Some j -> deliver j (Option.get computed.(j))))
    | Seq | Domains _ ->
      (* One lane, or nested inside a stream that owns the pool: misses
         compute inline, one per pull, in locality order — an
         interrupted consumer pays only for what it pulled. *)
      mk
        (with_hits_first (fun () ->
             if !cursor >= m then None
             else begin
               let j = !cursor in
               incr cursor;
               deliver j (compute_tok ~token arr.(misses.(j)))
             end))
  end

let stream_stop ~aborted s =
  if not s.stopped then begin
    s.stopped <- true;
    s.aborted <- aborted;
    s.on_stop ()
  end

let stream_abort s = if s.dead = None then stream_stop ~aborted:true s

let stream_next s =
  match s.dead with
  | Some d -> Error d
  | None when s.stopped -> Ok None
  | None -> (
    match s.next () with
    | Some i -> Ok (Some (i, (Option.get s.values.(i)).Cache.measurement))
    | None ->
      stream_stop ~aborted:false s;
      Ok None
    | exception e -> (
      stream_stop ~aborted:true s;
      match s.deadline with
      | Some (tok, deadline_s) -> (
        match timed_out_guard tok deadline_s e with
        | Some d ->
          s.dead <- Some d;
          Error d
        | None -> raise e)
      | None -> raise e))

let stream_drain s =
  if s.aborted then invalid_arg "Service.stream_drain: stream was aborted";
  let rec go () =
    match stream_next s with
    | Ok (Some _) -> go ()
    | Ok None ->
      Ok (Array.to_list (Array.map (fun v -> (Option.get v).Cache.measurement) s.values))
    | Error d -> Error d
  in
  go ()

let eval_batch ?engine ?account reqs =
  match stream_drain (eval_stream ?engine ?account reqs) with
  | Ok ms -> ms
  | Error _ -> assert false (* denials need a per-stream deadline *)

(* Generic job-level streaming for fan-outs that are not [Request]
   evaluations (a lot's die calibrations, an attack's trial set): run
   [f] over [0..n-1] on the pool, out of order, and assemble by index.
   [f] may call back into this engine — on the main lane such calls
   compute inline behind the re-entrancy latch; on worker lanes they
   take the usual off-main (checkpoint + inline compute) path. *)
let map_jobs ?engine f n =
  let t = engine_of engine in
  match t.backend with
  | Domains pool when n > 0 && on_main () && not t.streaming ->
    t.streaming <- true;
    Fun.protect
      ~finally:(fun () -> t.streaming <- false)
      (fun () ->
        let out = Array.make n None in
        Pool.drain (Pool.submit_stream pool (fun i -> out.(i) <- Some (f i)) n);
        List.init n (fun i -> Option.get out.(i)))
  | _ -> List.init n f

let eval_guarded ?engine ~account req =
  if Account.exhausted account then begin
    Telemetry.Counter.incr denied_counter;
    let limit = Option.value (Account.limit account) ~default:0 in
    Error (Budget_exhausted { spent = Account.spent account; limit })
  end
  else begin
    let t = engine_of engine in
    let value = eval_value ~token:t.deadline ~account t req in
    Ok (value.Cache.measurement, value.Cache.trial_cost)
  end
