(* Tests for the central evaluation engine: cache hits must be free
   (zero simulator steps) and bit-identical, the LRU must evict at
   capacity, batches must preserve request order, and the Domains
   backend must agree with the sequential backend bit-for-bit. *)

let standard =
  match Rfchain.Standards.find_opt "bluetooth" with
  | Some s -> s
  | None -> Alcotest.fail "bluetooth standard missing"

let die = lazy (Engine.Request.die_of_seed 42)

let config_of_bit bit =
  Rfchain.Config.of_bits
    (Int64.logxor (Rfchain.Config.to_bits Rfchain.Config.nominal) (Int64.shift_left 1L bit))

let request config =
  Engine.Request.make ~die:(Lazy.force die) ~standard ~config Engine.Request.Snr_mod

let counter name =
  match Telemetry.Counter.find name with
  | Some c -> Telemetry.Counter.value c
  | None -> 0

let bits = Int64.bits_of_float

let same_measurement (a : Metrics.Spec.measurement) (b : Metrics.Spec.measurement) =
  bits a.Metrics.Spec.snr_mod_db = bits b.Metrics.Spec.snr_mod_db
  && bits a.Metrics.Spec.snr_rx_db = bits b.Metrics.Spec.snr_rx_db
  &&
  match (a.Metrics.Spec.sfdr_db, b.Metrics.Spec.sfdr_db) with
  | None, None -> true
  | Some x, Some y -> bits x = bits y
  | _ -> false

(* -------------------------------------------------------------- cache *)

let test_cache_hit () =
  let engine = Engine.Service.create () in
  let req = request Rfchain.Config.nominal in
  let trials0 = counter "measure.trials" in
  let first = Engine.Service.eval ~engine req in
  let miss_cost = counter "measure.trials" - trials0 in
  let steps0 = counter "sdm.steps" in
  let hits0 = counter "engine.cache.hit" in
  let trials1 = counter "measure.trials" in
  let second = Engine.Service.eval ~engine req in
  Alcotest.(check bool) "hit is bit-identical to the miss" true (same_measurement first second);
  Alcotest.(check int) "hit runs zero simulator steps" steps0 (counter "sdm.steps");
  Alcotest.(check int) "hit is recorded" (hits0 + 1) (counter "engine.cache.hit");
  (* The hit replays the original trial cost, so query accounting is
     invariant to cache warmth. *)
  Alcotest.(check int) "hit replays the trial cost" (trials1 + miss_cost)
    (counter "measure.trials");
  Engine.Service.shutdown engine

let test_lru_eviction () =
  let engine = Engine.Service.create ~cache_capacity:2 () in
  let r1 = request (config_of_bit 0) in
  let r2 = request (config_of_bit 1) in
  let r3 = request (config_of_bit 2) in
  ignore (Engine.Service.eval ~engine r1);
  ignore (Engine.Service.eval ~engine r2);
  let evict0 = counter "engine.cache.evict" in
  ignore (Engine.Service.eval ~engine r3);
  Alcotest.(check int) "third insert evicts at capacity 2" (evict0 + 1)
    (counter "engine.cache.evict");
  (* r1 was least recently used, so it is the one that went. *)
  let miss0 = counter "engine.cache.miss" in
  let hit0 = counter "engine.cache.hit" in
  ignore (Engine.Service.eval ~engine r1);
  Alcotest.(check int) "evicted entry misses" (miss0 + 1) (counter "engine.cache.miss");
  Alcotest.(check int) "no phantom hit for the evicted entry" hit0 (counter "engine.cache.hit");
  (* r3 is still resident. *)
  ignore (Engine.Service.eval ~engine r3);
  Alcotest.(check int) "recent entry still hits" (hit0 + 1) (counter "engine.cache.hit");
  Engine.Service.shutdown engine

let test_cache_occupancy () =
  let cache = Engine.Cache.create ~capacity:2 in
  let v =
    {
      Engine.Cache.measurement = { Metrics.Spec.snr_mod_db = 1.0; snr_rx_db = 2.0; sfdr_db = None };
      trial_cost = 1;
    }
  in
  Alcotest.(check int) "fresh cache is empty" 0 (Engine.Cache.length cache);
  Engine.Cache.add cache "a" v;
  Engine.Cache.add cache "b" v;
  Engine.Cache.add cache "c" v;
  (* Eviction keeps occupancy at capacity: the bound bites, it is
     never exceeded. *)
  Alcotest.(check int) "occupancy saturates at capacity" 2 (Engine.Cache.length cache);
  Engine.Cache.add cache "a" v;
  Alcotest.(check int) "re-adding an evicted key stays at capacity" 2 (Engine.Cache.length cache)

(* -------------------------------------------------------------- batch *)

let test_batch_order () =
  let engine = Engine.Service.create ~cache:false () in
  let reqs = List.map (fun bit -> request (config_of_bit bit)) [ 3; 0; 7; 1; 5 ] in
  let batch = Engine.Service.eval_batch ~engine reqs in
  let singles = List.map (fun r -> Engine.Service.eval ~engine r) reqs in
  Alcotest.(check int) "one result per request" (List.length reqs) (List.length batch);
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "batch slot %d matches its request" i)
        true (same_measurement b s))
    (List.combine batch singles);
  Engine.Service.shutdown engine

(* Every keyed request does one cache lookup, in request order, before
   any compute: a key repeated inside one batch misses twice and is
   computed twice, on either backend. *)
let test_batch_duplicate_keys () =
  List.iter
    (fun jobs ->
      let engine = Engine.Service.create ~jobs () in
      let req = request (config_of_bit 40) in
      let evals0 = counter "engine.evals" in
      let miss0 = counter "engine.cache.miss" in
      let hit0 = counter "engine.cache.hit" in
      (match Engine.Service.eval_batch ~engine [ req; req ] with
      | [ a; b ] -> Alcotest.(check bool) "duplicates agree" true (same_measurement a b)
      | _ -> Alcotest.fail "one result per request");
      Alcotest.(check int) (Printf.sprintf "jobs %d: both computed" jobs) (evals0 + 2)
        (counter "engine.evals");
      Alcotest.(check int) (Printf.sprintf "jobs %d: both missed" jobs) (miss0 + 2)
        (counter "engine.cache.miss");
      Alcotest.(check int) (Printf.sprintf "jobs %d: no hit" jobs) hit0
        (counter "engine.cache.hit");
      Engine.Service.shutdown engine)
    [ 1; 2 ]

let seq_engine = lazy (Engine.Service.create ~jobs:1 ~cache:false ())
let pool_engine = lazy (Engine.Service.create ~jobs:2 ~cache:false ())
let pool_engine4 = lazy (Engine.Service.create ~jobs:4 ~cache:false ())
let pool_engine8 = lazy (Engine.Service.create ~jobs:8 ~cache:false ())

(* The whole jobs sweep the CLI exposes: the scheduler must be
   invisible in the results at every lane count. *)
let prop_backend_equivalence =
  QCheck.Test.make ~name:"Seq and Domains backends agree bit-for-bit at jobs 2/4/8"
    ~count:4
    QCheck.(list_of_size (Gen.int_range 1 4) (int_range 0 63))
    (fun flipped_bits ->
      let reqs = List.map (fun bit -> request (config_of_bit bit)) flipped_bits in
      let seq = Engine.Service.eval_batch ~engine:(Lazy.force seq_engine) reqs in
      List.for_all
        (fun engine ->
          let par = Engine.Service.eval_batch ~engine:(Lazy.force engine) reqs in
          List.for_all2 same_measurement seq par)
        [ pool_engine; pool_engine4; pool_engine8 ])

(* Campaign output across the jobs sweep: the fig7-style grid of cells
   and the flip probes must be bit-identical however the lanes split
   the batches' chunks between them.  (The CLI-level byte
   compare of the full fig7/campaign reports is `make engine-smoke` /
   `make sched-smoke`; this is the in-process property.) *)
let same_campaign (a : Faults.Campaign.t) (b : Faults.Campaign.t) =
  List.length a.Faults.Campaign.cells = List.length b.Faults.Campaign.cells
  && List.for_all2
       (fun (x : Faults.Campaign.cell) (y : Faults.Campaign.cell) ->
         x.Faults.Campaign.die_seed = y.Faults.Campaign.die_seed
         && x.Faults.Campaign.mechanism = y.Faults.Campaign.mechanism
         && bits x.Faults.Campaign.snr_mod_db = bits y.Faults.Campaign.snr_mod_db
         && bits x.Faults.Campaign.lock_margin_db = bits y.Faults.Campaign.lock_margin_db
         && x.Faults.Campaign.in_spec = y.Faults.Campaign.in_spec)
       a.Faults.Campaign.cells b.Faults.Campaign.cells
  && List.for_all2
       (fun (x : Faults.Campaign.flip_probe) (y : Faults.Campaign.flip_probe) ->
         x.Faults.Campaign.bit = y.Faults.Campaign.bit
         && bits x.Faults.Campaign.flip_snr_mod_db = bits y.Faults.Campaign.flip_snr_mod_db
         && x.Faults.Campaign.survives_full = y.Faults.Campaign.survives_full)
       a.Faults.Campaign.flips b.Faults.Campaign.flips
  && a.Faults.Campaign.unlocked_bits = b.Faults.Campaign.unlocked_bits

let prop_campaign_jobs_equivalence =
  QCheck.Test.make ~name:"campaign cells/flips bit-identical across jobs 1/4/8" ~count:1
    QCheck.(int_range 40 44)
    (fun seed ->
      let run engine =
        match
          Faults.Campaign.run ~dies:1 ~seed ~engine standard
        with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_report (Faults.Error.to_string e)
      in
      let base = run (Lazy.force seq_engine) in
      same_campaign base (run (Lazy.force pool_engine4))
      && same_campaign base (run (Lazy.force pool_engine8)))

(* ------------------------------------------------------------ account *)

let test_account_atomic_hammer () =
  let a = Engine.Service.Account.make () in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Engine.Service.Account.charge a 3
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no charge lost across 4 domains" (4 * per_domain * 3)
    (Engine.Service.Account.spent a)

(* Shared account under concurrent evaluation: the main domain drives
   the jobs-4 pool while two extra domains evaluate the same list
   through the worker fallback path, all charging one account. *)
let prop_shared_account =
  QCheck.Test.make ~name:"shared account never loses charges under eval_batch --jobs 4"
    ~count:3
    QCheck.(list_of_size (Gen.int_range 1 3) (int_range 0 63))
    (fun flipped_bits ->
      let reqs = List.map (fun bit -> request (config_of_bit bit)) flipped_bits in
      let engine = Lazy.force pool_engine4 in
      let solo = Engine.Service.Account.make () in
      ignore (Engine.Service.eval_batch ~engine ~account:solo reqs);
      let expected = 3 * Engine.Service.Account.spent solo in
      let shared = Engine.Service.Account.make () in
      let evaluate () = ignore (Engine.Service.eval_batch ~engine ~account:shared reqs) in
      let others = List.init 2 (fun _ -> Domain.spawn evaluate) in
      evaluate ();
      List.iter Domain.join others;
      Engine.Service.Account.spent shared = expected)

(* --------------------------------------------------------------- pool *)

(* The one way to run a pool job: post it, then consume it whole. *)
let pool_run ?chunk pool f n = Engine.Pool.drain (Engine.Pool.submit_stream ?chunk pool f n)

let test_pool_reusable_after_exception () =
  let pool = Engine.Pool.create 2 in
  let n = 32 in
  let out = Array.make n 0 in
  (match pool_run pool (fun i -> if i = 7 then failwith "boom" else out.(i) <- i + 1) n with
  | () -> Alcotest.fail "the raising job must propagate its exception"
  | exception Failure msg -> Alcotest.(check string) "first failure surfaces" "boom" msg);
  Array.fill out 0 n 0;
  pool_run pool (fun i -> out.(i) <- i + 1) n;
  Alcotest.(check bool) "pool still completes every index after a failed run" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

(* Claims rebalance under skew: single-index chunks on 4 lanes, with 3
   of every 4 indices made slow.  Whichever lane is free draws the next
   index from the shared cursor, so however the lanes get scheduled (on
   one core or many) every index must run exactly once and the pool
   must take the next job. *)
let test_pool_claims_under_skew () =
  let pool = Engine.Pool.create ~eager:true 3 in
  let n = 64 in
  let out = Array.init n (fun _ -> Atomic.make 0) in
  pool_run ~chunk:1 pool
    (fun i ->
      (* A coarse spin stands in for a slow work item. *)
      if i mod 4 <> 0 then
        for _ = 1 to 20_000 do
          Domain.cpu_relax ()
        done;
      Atomic.incr out.(i))
    n;
  Alcotest.(check bool) "every index ran exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) out);
  let next = Array.make 8 0 in
  pool_run pool (fun i -> next.(i) <- i + 1) 8;
  Alcotest.(check bool) "pool reusable after the skewed job" true
    (Array.for_all (fun v -> v > 0) next);
  Engine.Pool.shutdown pool

(* Discard after [k] deliveries, at any chunk size: the cursor jumps to
   [n] and the unclaimed tail is retired unrun, so the retire count
   must land on exactly [n] — one short and discard would hang, one
   over and the next job's buffer would be torn down early.  Delivered
   indices are distinct, no index runs twice, nothing runs after
   [discard] returns, and the next job on the same pool completes. *)
let discard_pool = lazy (Engine.Pool.create ~eager:true 2)

let prop_discard_retires_exactly =
  QCheck.Test.make ~name:"discard after k deliveries retires the rest exactly once" ~count:60
    QCheck.(triple (int_range 1 200) (int_range 1 24) (int_range 0 200))
    (fun (n, chunk, k) ->
      let pool = Lazy.force discard_pool in
      let k = min k n in
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      let ticket =
        Engine.Pool.submit_stream ~chunk pool
          (fun i ->
            if i mod 3 = 0 then
              for _ = 1 to 200 do
                Domain.cpu_relax ()
              done;
            Atomic.incr ran.(i))
          n
      in
      let delivered = List.init k (fun _ -> Engine.Pool.next_result ticket) in
      Engine.Pool.discard ticket;
      let after_discard = Array.map Atomic.get ran in
      let out = Array.make 16 0 in
      pool_run ~chunk:3 pool (fun i -> out.(i) <- i + 1) 16;
      let delivered = List.filter_map Fun.id delivered in
      List.length delivered = k
      && List.length (List.sort_uniq compare delivered) = k
      && List.for_all (fun i -> after_discard.(i) = 1) delivered
      && Array.for_all (fun c -> c <= 1) after_discard
      && Array.for_all2 (fun c before -> Atomic.get c = before) ran after_discard
      && Engine.Pool.next_result ticket = None
      && Array.for_all (fun v -> v > 0) out)

(* ------------------------------------------------------------- stream *)

(* Out-of-order delivery: item 0 blocks until item 1 (on the other
   lane) has run, then sleeps long enough for item 1's completion to be
   queued first.  Whichever lane ends up claiming which item, item 1's
   completion strictly precedes item 0's, so the first delivery must
   be index 1.  That is the barrier's absence made
   observable: under the old per-chunk submit, nothing was delivered
   until the whole batch joined. *)
let test_pool_stream_out_of_order () =
  let pool = Engine.Pool.create ~eager:true 1 in
  let gate = Atomic.make false in
  let results = Array.make 2 (-1) in
  let ticket =
    Engine.Pool.submit_stream ~chunk:1 pool
      (fun i ->
        if i = 0 then begin
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
          (* Yield the core so the lane that ran item 1 certainly gets
             to push its completion before item 0's lands behind it. *)
          Unix.sleepf 0.05
        end
        else Atomic.set gate true;
        results.(i) <- i * 10)
      2
  in
  (match Engine.Pool.next_result ticket with
  | Some i ->
    Alcotest.(check int) "item 1 is delivered first (out of order)" 1 i;
    Alcotest.(check int) "its slot is written on delivery" 10 results.(i)
  | None -> Alcotest.fail "a completed item must be deliverable");
  (match Engine.Pool.next_result ticket with
  | Some i ->
    Alcotest.(check int) "the gated item arrives second" 0 i;
    Alcotest.(check int) "gated item's slot" 0 results.(i)
  | None -> Alcotest.fail "the gated item must still be delivered");
  Alcotest.(check bool) "delivery ends with None" true (Engine.Pool.next_result ticket = None);
  let out = Array.make 8 0 in
  pool_run pool (fun i -> out.(i) <- i + 1) 8;
  Alcotest.(check bool) "pool free for an ordinary run after the stream" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

let test_pool_stream_discard () =
  let pool = Engine.Pool.create 1 in
  let ran = Array.make 64 0 in
  let ticket = Engine.Pool.submit_stream pool (fun i -> ran.(i) <- 1) 64 in
  (match Engine.Pool.next_result ticket with
  | Some _ -> ()
  | None -> Alcotest.fail "expected at least one delivery before the discard");
  (* A second job over an undrained ticket must be refused... *)
  (match Engine.Pool.submit_stream pool ignore 4 with
  | _ -> Alcotest.fail "posting over an in-flight stream must be refused"
  | exception Invalid_argument _ -> ());
  Engine.Pool.discard ticket;
  Alcotest.(check bool) "discarded ticket delivers nothing" true
    (Engine.Pool.next_result ticket = None);
  (match Engine.Pool.drain ticket with
  | _ -> Alcotest.fail "draining a discarded ticket must be refused"
  | exception Invalid_argument _ -> ());
  (* ... and after the discard the pool is free again. *)
  let out = Array.make 8 0 in
  pool_run pool (fun i -> out.(i) <- i + 1) 8;
  Alcotest.(check bool) "pool reusable after the discard" true
    (Array.for_all (fun v -> v > 0) out);
  Engine.Pool.shutdown pool

(* Reference check: batches are drained streams, so compare them with
   the simplest path there is — one [eval] per request on a fresh,
   sequential, uncached engine.  Measurements must agree bit for bit
   and so must the trial odometer. *)
let batch_matches_reference engines reqs =
  let trials f =
    let t0 = counter "measure.trials" in
    let ms = f () in
    (ms, counter "measure.trials" - t0)
  in
  let reference, ref_trials =
    let engine = Engine.Service.create ~jobs:1 ~cache:false () in
    let r = trials (fun () -> List.map (fun req -> Engine.Service.eval ~engine req) reqs) in
    Engine.Service.shutdown engine;
    r
  in
  List.for_all
    (fun engine ->
      let batch, batch_trials =
        trials (fun () -> Engine.Service.eval_batch ~engine:(Lazy.force engine) reqs)
      in
      List.for_all2 same_measurement reference batch && batch_trials = ref_trials)
    engines

let prop_batch_equals_reference =
  QCheck.Test.make ~name:"eval_batch = List.map eval on a fresh jobs-1 engine at jobs 1/4/8"
    ~count:4
    QCheck.(list_of_size (Gen.int_range 1 6) (int_range 0 63))
    (fun flipped_bits ->
      batch_matches_reference [ seq_engine; pool_engine4; pool_engine8 ]
        (List.map (fun bit -> request (config_of_bit bit)) flipped_bits))

(* A grid whose locality order (die, standard, gain code) is far from
   its index order: two dies, three gain codes (one reached only
   through [Snr_rx_at_power]'s own code) and four metrics. *)
let locality_grid =
  lazy
    (let chip_a = Circuit.Process.fabricate ~seed:42 () in
     let chip_b = Circuit.Process.fabricate ~seed:43 () in
     let code c = { Rfchain.Config.nominal with vglna_gain = c } in
     let at_power = Engine.Request.Snr_rx_at_power { n_fft = 64; p_dbm = -40.0; gain_code = 3 } in
     List.map
       (fun (chip, config_code, metric) ->
         let req =
           Engine.Request.make ~die:(Engine.Request.die_of_chip chip) ~standard
             ~config:(code config_code) metric
         in
         let gain = match metric with Engine.Request.Snr_rx_at_power _ -> 3 | _ -> config_code in
         (req, (Circuit.Process.identity chip, gain)))
       [
         (chip_a, 8, Engine.Request.Snr_mod);
         (chip_b, 3, Engine.Request.Snr_mod);
         (chip_a, 12, Engine.Request.Snr_rx { n_fft = 64 });
         (chip_a, 8, at_power);
         (chip_b, 8, Engine.Request.Sfdr);
         (chip_a, 3, Engine.Request.Snr_mod);
         (chip_b, 3, Engine.Request.Snr_rx { n_fft = 64 });
         (chip_a, 8, Engine.Request.Sfdr);
         (chip_a, 12, Engine.Request.Snr_mod);
         (chip_b, 3, at_power);
       ])

(* One lane computes misses one per pull in stable locality order, so
   requests sharing a receiver front half run back to back. *)
let test_stream_locality_order () =
  let grid = Lazy.force locality_grid in
  let expected =
    List.mapi (fun i (_, key) -> (key, i)) grid
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let engine = Engine.Service.create ~jobs:1 () in
  let stream = Engine.Service.eval_stream ~engine (List.map fst grid) in
  let rec pull acc =
    match Engine.Service.stream_next stream with
    | Some (i, _) -> pull (i :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "misses delivered in stable locality order" expected (pull []);
  Engine.Service.shutdown engine

let test_batch_locality_grid () =
  Alcotest.(check bool) "eval_batch = List.map eval on the locality grid at jobs 1/4" true
    (batch_matches_reference [ seq_engine; pool_engine4 ] (List.map fst (Lazy.force locality_grid)))

(* Cache hits short-circuit before anything reaches the scheduler and
   are delivered first, in request order, at replayed cost. *)
let test_stream_hits_first () =
  let engine = Engine.Service.create () in
  let ra = request (config_of_bit 33) in
  let rb = request (config_of_bit 34) in
  let cached = Engine.Service.eval ~engine rb in
  let steps0 = counter "sdm.steps" in
  let stream = Engine.Service.eval_stream ~engine [ ra; rb ] in
  (match Engine.Service.stream_next stream with
  | Some (i, m) ->
    Alcotest.(check int) "the cache hit is delivered first" 1 i;
    Alcotest.(check bool) "hit is bit-identical" true (same_measurement cached m);
    Alcotest.(check int) "hit delivery ran zero simulator steps" steps0 (counter "sdm.steps")
  | None -> Alcotest.fail "expected the hit as the first delivery");
  Alcotest.(check int) "drain returns the full grid in request order" 2
    (List.length (Engine.Service.stream_drain stream));
  Engine.Service.shutdown engine

let test_stream_abort_reusable () =
  let engine = Lazy.force pool_engine4 in
  let reqs = List.map (fun bit -> request (config_of_bit bit)) [ 45; 46; 47; 48; 49 ] in
  let stream = Engine.Service.eval_stream ~engine reqs in
  (match Engine.Service.stream_next stream with
  | Some _ -> ()
  | None -> Alcotest.fail "expected one delivery before the abort");
  Engine.Service.stream_abort stream;
  Alcotest.(check bool) "an aborted stream is at its end" true
    (Engine.Service.stream_next stream = None);
  (match Engine.Service.stream_drain stream with
  | _ -> Alcotest.fail "draining an aborted stream must be refused"
  | exception Invalid_argument _ -> ());
  (* The pool was released: the next batch on the same engine agrees
     with the sequential backend. *)
  let par = Engine.Service.eval_batch ~engine reqs in
  let seq = Engine.Service.eval_batch ~engine:(Lazy.force seq_engine) reqs in
  Alcotest.(check bool) "engine fully usable after an aborted stream" true
    (List.for_all2 same_measurement seq par)

(* Job-level streaming with re-entrant engine calls: each job runs a
   nested eval_batch on the same engine — inline on the main lane (the
   streaming latch), off-main on worker lanes — and the assembled
   results match the sequential backend. *)
let test_map_jobs_nested () =
  let engine = Lazy.force pool_engine4 in
  let reqs = Array.of_list (List.map (fun bit -> request (config_of_bit bit)) [ 52; 53; 54 ]) in
  let via_jobs =
    Engine.Service.map_jobs ~engine
      (fun i -> List.hd (Engine.Service.eval_batch ~engine [ reqs.(i) ]))
      (Array.length reqs)
  in
  let direct =
    List.map (fun r -> Engine.Service.eval ~engine:(Lazy.force seq_engine) r) (Array.to_list reqs)
  in
  Alcotest.(check int) "one result per job" (Array.length reqs) (List.length via_jobs);
  Alcotest.(check bool) "nested-eval jobs assemble in index order, bit-identical" true
    (List.for_all2 same_measurement direct via_jobs)

(* ----------------------------------------------------------- deadline *)

(* The engine's deadline on one request (sequential engine) and on four
   requests (pool engine): an expired deadline cancels the batch with
   the deadline reason and leaves no trace — nothing journalled, and
   the first request still misses the cache, so it is cancelled again;
   a generous one is bit-identical to no deadline. *)
let check_engine_deadline ~jobs reqs =
  let cancelled what f =
    match f () with
    | _ -> Alcotest.fail (what ^ " must be cancelled")
    | exception Telemetry.Cancel.Cancelled reason ->
      Alcotest.(check string) what Telemetry.Cancel.deadline_reason reason
  in
  let path = Filename.temp_file "deadline" ".jsonl" in
  let cp =
    match Engine.Checkpoint.load ~resume:false path with
    | Ok cp -> cp
    | Error c -> Alcotest.fail (Engine.Checkpoint.corruption_to_string c)
  in
  let expired = Engine.Service.create ~jobs ~checkpoint:cp ~deadline_s:0.0 () in
  cancelled "expired deadline cancels the batch" (fun () ->
      Engine.Service.eval_batch ~engine:expired reqs);
  Alcotest.(check int) "nothing journalled" 0 (Engine.Checkpoint.entries cp);
  cancelled "nothing cached: the request is cancelled again" (fun () ->
      Engine.Service.eval ~engine:expired (List.hd reqs));
  Engine.Service.shutdown expired;
  Engine.Checkpoint.close cp;
  Sys.remove path;
  let plain = Engine.Service.create ~jobs ~cache:false () in
  let generous = Engine.Service.create ~jobs ~cache:false ~deadline_s:60.0 () in
  Alcotest.(check bool) "generous deadline is bit-identical to none" true
    (List.for_all2 same_measurement
       (Engine.Service.eval_batch ~engine:plain reqs)
       (Engine.Service.eval_batch ~engine:generous reqs));
  Engine.Service.shutdown plain;
  Engine.Service.shutdown generous

let test_stream_deadline_one () = check_engine_deadline ~jobs:1 [ request (config_of_bit 9) ]

let test_stream_deadline_pool () =
  check_engine_deadline ~jobs:2 (List.map (fun bit -> request (config_of_bit bit)) [ 11; 13; 17; 19 ])

(* -------------------------------------------------------------- retry *)

let test_retry_escalates_to_success () =
  let p =
    Engine.Retry.policy ~max_attempts:5 ~initial:0
      ~escalate:(fun ~attempt prev -> (prev * 10) + attempt)
      ()
  in
  let seen = ref [] in
  let o =
    Engine.Retry.run p (fun ~attempt params ->
        seen := (attempt, params) :: !seen;
        if attempt < 3 then Error attempt else Ok "done")
  in
  Alcotest.(check int) "three attempts" 3 o.Engine.Retry.attempts;
  (match o.Engine.Retry.result with
  | Ok s -> Alcotest.(check string) "success value" "done" s
  | Error _ -> Alcotest.fail "third attempt succeeds");
  Alcotest.(check (list (pair int int)))
    "deterministic escalation ladder"
    [ (1, 0); (2, 2); (3, 23) ]
    (List.rev !seen)

let test_retry_terminal_error () =
  let p = Engine.Retry.policy ~max_attempts:5 ~initial:() ~escalate:(fun ~attempt:_ () -> ()) () in
  let o = Engine.Retry.run ~retryable:(fun _ -> false) p (fun ~attempt:_ () -> Error "fatal") in
  Alcotest.(check int) "terminal error stops at attempt 1" 1 o.Engine.Retry.attempts;
  Alcotest.(check bool) "error preserved" true (o.Engine.Retry.result = Error "fatal")

let test_retry_bound_and_fold () =
  let p = Engine.Retry.policy ~max_attempts:3 ~initial:() ~escalate:(fun ~attempt:_ () -> ()) () in
  let o = Engine.Retry.run p (fun ~attempt () -> Error attempt) in
  Alcotest.(check int) "bounded at max_attempts" 3 o.Engine.Retry.attempts;
  Alcotest.(check bool) "default keep reports the last error" true
    (o.Engine.Retry.result = Error 3);
  let o =
    Engine.Retry.run ~keep:min p (fun ~attempt () -> Error (if attempt = 2 then 1 else attempt))
  in
  Alcotest.(check bool) "keep folds to the best error" true (o.Engine.Retry.result = Error 1)

(* --------------------------------------------------------- checkpoint *)

let ok_checkpoint = function
  | Ok cp -> cp
  | Error c -> Alcotest.fail (Engine.Checkpoint.corruption_to_string c)

let cp_value snr_mod snr_rx sfdr cost =
  {
    Engine.Cache.measurement = { Metrics.Spec.snr_mod_db = snr_mod; snr_rx_db = snr_rx; sfdr_db = sfdr };
    trial_cost = cost;
  }

let check_cp_value msg (a : Engine.Cache.value) (b : Engine.Cache.value) =
  Alcotest.(check bool) msg true
    (same_measurement a.Engine.Cache.measurement b.Engine.Cache.measurement
    && a.Engine.Cache.trial_cost = b.Engine.Cache.trial_cost)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  (* Deliberately hostile floats (nan, -inf, subnormal) and a key that
     needs escaping: the journal must round-trip all of them bit-for-
     bit. *)
  let v1 = cp_value 12.34 nan None 3 in
  let v2 = cp_value neg_infinity 1e-320 (Some 55.5) 0 in
  Engine.Checkpoint.record cp "plain|key" v1;
  Engine.Checkpoint.record cp "weird \"key\"\nwith|breaks" v2;
  Engine.Checkpoint.close cp;
  (* Journal v1, byte for byte. *)
  Alcotest.(check string) "journal bytes pinned"
    (Printf.sprintf {|{"type":"journal","version":1,"engine":"%s"}|} (Telemetry.Manifest.engine_hash ())
    ^ "\n"
    ^ {|{"type":"cell","key":"plain|key","snr_mod":"0x1.8ae147ae147aep+3","snr_rx":"bits:7ff8000000000001","sfdr":null,"cost":3}|}
    ^ "\n"
    ^ {|{"type":"cell","key":"weird \"key\"\nwith|breaks","snr_mod":"-infinity","snr_rx":"0x0.00000000007e8p-1022","sfdr":"0x1.bcp+5","cost":0}|}
    ^ "\n")
    (In_channel.with_open_bin path In_channel.input_all);
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "both records replayed" 2 (Engine.Checkpoint.entries cp);
  (match Engine.Checkpoint.find cp "plain|key" with
  | Some v -> check_cp_value "nan survives the round trip" v1 v
  | None -> Alcotest.fail "plain key missing");
  (match Engine.Checkpoint.find cp "weird \"key\"\nwith|breaks" with
  | Some v -> check_cp_value "escaped key and subnormal survive" v2 v
  | None -> Alcotest.fail "escaped key missing");
  Alcotest.(check bool) "absent key is a miss" true
    (Engine.Checkpoint.find cp "missing" = None);
  Engine.Checkpoint.close cp;
  Sys.remove path

(* Hand-written journal lines for the corruption cases. *)
let journal_header = {|{"type":"journal","version":1}|}

let journal_cell ?(cost = "1") key =
  Printf.sprintf {|{"type":"cell","key":"%s","snr_mod":"0x1p+0","snr_rx":"0x1p+1","sfdr":null,"cost":%s}|}
    key cost

let write_journal lines =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines);
  path

let test_checkpoint_torn_tail () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  Engine.Checkpoint.record cp "a" (cp_value 1.0 2.0 None 1);
  Engine.Checkpoint.record cp "b" (cp_value 3.0 4.0 None 1);
  Engine.Checkpoint.close cp;
  (* Simulate a crash mid-write: a final line cut before its newline. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"type":"cell","key":"c","snr|};
  close_out oc;
  let torn0 = counter "engine.checkpoint.torn" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "torn tail dropped, good records kept" 2 (Engine.Checkpoint.entries cp);
  Alcotest.(check int) "torn tail counted" (torn0 + 1) (counter "engine.checkpoint.torn");
  (* The torn bytes were truncated away, so appending keeps the journal
     parseable. *)
  Engine.Checkpoint.record cp "c" (cp_value 5.0 6.0 None 1);
  Engine.Checkpoint.close cp;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Alcotest.(check int) "journal clean after re-append" 3 (Engine.Checkpoint.entries cp);
  Engine.Checkpoint.close cp;
  Sys.remove path;
  (* A malformed record that got its newline out is torn too when it is
     the final line, however its integer is broken. *)
  List.iter
    (fun cost ->
      let path = write_journal [ journal_header; journal_cell "a"; journal_cell ~cost "b" ] in
      let torn0 = counter "engine.checkpoint.torn" in
      (match Engine.Checkpoint.load ~resume:true path with
      | Ok cp ->
        Alcotest.(check int) ("cost " ^ cost ^ ": final line dropped") 1 (Engine.Checkpoint.entries cp);
        Alcotest.(check int) ("cost " ^ cost ^ ": torn counted") (torn0 + 1)
          (counter "engine.checkpoint.torn");
        Engine.Checkpoint.close cp
      | Error c -> Alcotest.fail (Engine.Checkpoint.corruption_to_string c)
      | exception e -> Alcotest.failf "cost %s: load raised %s" cost (Printexc.to_string e));
      Sys.remove path)
    [ "-"; "99999999999999999999" ]

let test_checkpoint_corrupt_middle () =
  List.iter
    (fun (what, lines, bad_line) ->
      let path = write_journal lines in
      (match Engine.Checkpoint.load ~resume:true path with
      | Error { Engine.Checkpoint.line; _ } ->
        Alcotest.(check int) (what ^ ": corruption reported at the offending line") bad_line line
      | Ok _ -> Alcotest.failf "%s: a malformed line must refuse to load" what
      | exception e -> Alcotest.failf "%s: load raised %s" what (Printexc.to_string e));
      Sys.remove path)
    [
      ("garbage record", [ journal_header; "this is not a journal record"; journal_header ], 2);
      ("cost is a lone minus", [ journal_header; journal_cell ~cost:"-" "b"; journal_cell "a" ], 2);
      ( "cost overflows",
        [ journal_header; journal_cell ~cost:"99999999999999999999" "b"; journal_cell "a" ],
        2 );
      ("header version is a lone minus", [ {|{"type":"journal","version":-}|}; journal_cell "a" ], 1);
      ( "header version overflows",
        [ {|{"type":"journal","version":99999999999999999999}|}; journal_cell "a" ],
        1 );
    ]

(* A valid 3-record journal, and a reader that loads any bytes as one. *)
let valid_journal =
  lazy
    (let path = Filename.temp_file "ckpt" ".jsonl" in
     let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
     Engine.Checkpoint.record cp "a" (cp_value 12.34 nan None 3);
     Engine.Checkpoint.record cp "b\"\n" (cp_value neg_infinity 1e-320 (Some 55.5) 0);
     Engine.Checkpoint.record cp "c" (cp_value (-0.0) infinity (Some 1.0) 1);
     Engine.Checkpoint.close cp;
     let raw = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     raw)

let load_journal_bytes bytes =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  Result.map Engine.Checkpoint.close (Engine.Checkpoint.load ~resume:true path)

let test_checkpoint_provenance () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  (* A fresh journal stamps the current engine hash into its header. *)
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  Engine.Checkpoint.record cp "a" (cp_value 1.0 2.0 None 1);
  Engine.Checkpoint.close cp;
  let header = In_channel.with_open_bin path In_channel.input_line in
  (match header with
  | Some line ->
    let expected =
      Printf.sprintf {|"engine":"%s"|} (Telemetry.Manifest.engine_hash ())
    in
    Alcotest.(check bool) "header embeds the engine hash" true
      (let rec contains i =
         i + String.length expected <= String.length line
         && (String.sub line i (String.length expected) = expected || contains (i + 1))
       in
       contains 0)
  | None -> Alcotest.fail "journal has no header");
  (* Resuming our own journal raises no mismatch. *)
  let m0 = counter "engine.checkpoint.provenance_mismatch" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "same build: no mismatch" m0
    (counter "engine.checkpoint.provenance_mismatch");
  (* A journal from a different build still loads — resumed values are
     trusted — but the mismatch is counted. *)
  let oc = open_out path in
  output_string oc
    "{\"type\":\"journal\",\"version\":1,\"engine\":\"deadbeefdeadbeefdeadbeefdeadbeef\"}\n";
  close_out oc;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "foreign build: mismatch counted" (m0 + 1)
    (counter "engine.checkpoint.provenance_mismatch");
  (* A seed-era header with no engine field loads silently. *)
  let oc = open_out path in
  output_string oc "{\"type\":\"journal\",\"version\":1}\n";
  close_out oc;
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  Engine.Checkpoint.close cp;
  Alcotest.(check int) "legacy header: no mismatch" (m0 + 1)
    (counter "engine.checkpoint.provenance_mismatch");
  Sys.remove path

let test_checkpoint_engine_resume () =
  let path = Filename.temp_file "ckpt" ".jsonl" in
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:false path) in
  let e1 = Engine.Service.create ~cache:false ~checkpoint:cp () in
  let req = request (config_of_bit 21) in
  let m1 = Engine.Service.eval ~engine:e1 req in
  Engine.Checkpoint.close cp;
  Engine.Service.shutdown e1;
  (* A fresh engine (cold cache) over the resumed journal replays the
     evaluation without a single simulator step, trial cost included. *)
  let cp = ok_checkpoint (Engine.Checkpoint.load ~resume:true path) in
  let e2 = Engine.Service.create ~cache:false ~checkpoint:cp () in
  let steps0 = counter "sdm.steps" in
  let trials0 = counter "measure.trials" in
  let m2 = Engine.Service.eval ~engine:e2 req in
  Alcotest.(check bool) "replayed measurement bit-identical" true (same_measurement m1 m2);
  Alcotest.(check int) "replay runs zero simulator steps" steps0 (counter "sdm.steps");
  Alcotest.(check bool) "replay re-charges the trial cost" true
    (counter "measure.trials" > trials0);
  Engine.Checkpoint.close cp;
  Engine.Service.shutdown e2;
  Sys.remove path

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "cache",
        [
          Alcotest.test_case "hit is free and identical" `Quick test_cache_hit;
          Alcotest.test_case "LRU evicts at capacity" `Quick test_lru_eviction;
          Alcotest.test_case "occupancy saturates at capacity" `Quick test_cache_occupancy;
        ] );
      ( "batch",
        [
          Alcotest.test_case "order preservation" `Quick test_batch_order;
          Alcotest.test_case "duplicate keys are all computed" `Quick test_batch_duplicate_keys;
        ]
        @ qcheck [ prop_backend_equivalence; prop_campaign_jobs_equivalence ] );
      ( "account",
        [ Alcotest.test_case "atomic charge hammer" `Quick test_account_atomic_hammer ]
        @ qcheck [ prop_shared_account ] );
      ( "pool",
        [
          Alcotest.test_case "reusable after a raising job" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "claims rebalance under skew" `Quick test_pool_claims_under_skew;
        ]
        @ qcheck [ prop_discard_retires_exactly ] );
      ( "stream",
        [
          Alcotest.test_case "out-of-order delivery, no submit barrier" `Quick
            test_pool_stream_out_of_order;
          Alcotest.test_case "discard frees the pool, double-post refused" `Quick
            test_pool_stream_discard;
          Alcotest.test_case "cache hits are delivered first" `Quick test_stream_hits_first;
          Alcotest.test_case "abort releases the engine" `Quick test_stream_abort_reusable;
          Alcotest.test_case "map_jobs with nested engine calls" `Quick test_map_jobs_nested;
          Alcotest.test_case "one lane runs misses in locality order" `Quick
            test_stream_locality_order;
          Alcotest.test_case "mixed two-die grid batch = List.map eval at jobs 1/4" `Quick
            test_batch_locality_grid;
        ]
        @ qcheck [ prop_batch_equals_reference ] );
      ( "deadline",
        [
          Alcotest.test_case "one-request stream times out and completes" `Quick
            test_stream_deadline_one;
          Alcotest.test_case "four-request stream on the pool backend" `Quick
            test_stream_deadline_pool;
        ] );
      ( "retry",
        [
          Alcotest.test_case "escalates to success" `Quick test_retry_escalates_to_success;
          Alcotest.test_case "terminal errors stop immediately" `Quick test_retry_terminal_error;
          Alcotest.test_case "attempt bound and error folding" `Quick test_retry_bound_and_fold;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "journal round-trips bit-identically" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "torn final line is dropped and truncated" `Quick
            test_checkpoint_torn_tail;
          Alcotest.test_case "interior corruption refuses to load" `Quick
            test_checkpoint_corrupt_middle;
          Alcotest.test_case "header provenance round-trip" `Quick
            test_checkpoint_provenance;
          Alcotest.test_case "fresh engine resumes from the journal" `Quick
            test_checkpoint_engine_resume;
        ]
        @ Mutate.cases ~what:"journal" ~count:500 valid_journal load_journal_bytes );
    ]
