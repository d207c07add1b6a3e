(* Benchmark harness.

   Part 1 — Bechamel micro/macro benchmarks: one Test.make per
   figure/table of the paper (its computational kernel at a bounded
   size) plus the hot simulator kernels.  Part 2 — the full-size
   regeneration harness: re-prints every figure's and table's data
   series, exactly as `repro all` does, so one executable both times
   the kernels and reproduces the evaluation. *)

open Bechamel

(* Shared fixtures, built once: a calibrated die and a test stimulus. *)
let ctx = lazy (Experiments.Context.create ())

let stimulus =
  lazy
    (let c = Lazy.force ctx in
     let fs = Rfchain.Receiver.fs c.Experiments.Context.rx in
     let f_in = Rfchain.Receiver.test_tone_frequency c.Experiments.Context.rx ~n:8192 in
     Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:f_in ~fs 8192)

(* The spectral kernel as the measurement pipeline runs it: one planned
   real-input transform of the 8192-sample stimulus (packed n/2 complex
   FFT + untangling).  The seed harness ran a full complex transform
   here; that path stays below as its own kernel for the trajectory. *)
let bench_fft () =
  let x = Lazy.force stimulus in
  ignore (Sigkit.Fft.real_forward x)

let bench_fft_complex () =
  let x = Lazy.force stimulus in
  let re, im = Sigkit.Fft.of_real x in
  Sigkit.Fft.forward re im

(* FIG7/FIG9 kernel: one key evaluated through modulator + receiver. *)
let bench_fig7_key () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.snr_mod_db bench c.Experiments.Context.golden)

let bench_fig9_key () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.snr_rx_db ~n_fft:512 bench c.Experiments.Context.golden)

(* FIG8 kernel: a transient capture. *)
let bench_fig8_transient () =
  let c = Lazy.force ctx in
  ignore (Experiments.Fig8.run ~window:64 c)

(* FIG10 kernel: one PSD estimate. *)
let bench_fig10_psd () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  let record = Metrics.Measure.mod_output bench c.Experiments.Context.golden in
  ignore (Sigkit.Spectrum.periodogram ~fs:(Rfchain.Receiver.fs c.Experiments.Context.rx) record)

(* FIG11 kernel: one sweep point. *)
let bench_fig11_point () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore
    (Metrics.Measure.snr_rx_at_power_db ~n_fft:256 bench c.Experiments.Context.golden
       ~p_dbm:(-40.0) ~gain_code:9)

(* FIG12 kernel: one two-tone SFDR measurement. *)
let bench_fig12_sfdr () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.sfdr_db bench c.Experiments.Context.golden)

(* SEC-TABLE kernel: one brute-force trial on a re-fabbed die (this is
   the number that anchors the hardware attack-cost row). *)
let refab =
  lazy
    (let c = Lazy.force ctx in
     let key =
       Core.Key.make ~standard:c.Experiments.Context.standard ~chip:c.Experiments.Context.chip
         c.Experiments.Context.golden
     in
     let oracle =
       Attacks.Oracle.deploy c.Experiments.Context.standard ~chip_seed:c.Experiments.Context.seed
         ~key
     in
     Attacks.Oracle.refabricate oracle ~attacker_seed:99)

let trial_rng = lazy (Sigkit.Rng.create 0xBEEF)

let bench_security_trial () =
  ignore (Attacks.Oracle.try_key_fast (Lazy.force refab) (Rfchain.Config.random (Lazy.force trial_rng)))

(* CMP-TABLE kernel: the full baseline corruption probe set. *)
let bench_compare_probes () = ignore (Baselines.Compare.corruption_probes ())

(* Calibration kernels. *)
let bench_osc_tune () =
  let c = Lazy.force ctx in
  ignore (Calibration.Osc_tune.run c.Experiments.Context.rx)

(* LOT kernel: one full die calibration (the per-die production cost). *)
let lot_counter = ref 0

let bench_lot_die () =
  incr lot_counter;
  let chip = Circuit.Process.fabricate ~seed:(50_000 + !lot_counter) () in
  let rx = Rfchain.Receiver.create chip Rfchain.Standards.max_frequency in
  ignore (Calibration.Calibrate.run ~passes:1 ~refine_sfdr:false ~max_retries:0 rx)

(* ONCHIP kernel: one gate-level ALU comparison (the self-calibration
   engine's inner operation). *)
let onchip_alu = lazy (Calibration.Onchip.lock_alu (Sigkit.Rng.create 3) ())

let bench_onchip_alu () =
  let locked = Lazy.force onchip_alu in
  ignore
    (Netlist.Gate.eval locked.Netlist.Logic_lock.circuit
       ~key:locked.Netlist.Logic_lock.correct_key
       (Array.init 32 (fun i -> i land 1 = 0)))

(* FAULTS kernel: one stress-campaign cell — the golden key measured on
   a faulted copy of the die (the inner loop of `repro faults`). *)
let bench_faults_cell () =
  let c = Lazy.force ctx in
  let rx_faulted =
    Faults.Inject.receiver c.Experiments.Context.chip c.Experiments.Context.standard
      [ Faults.Fault.pvt Faults.Fault.Moderate ]
  in
  ignore (Metrics.Measure.snr_mod_db (Metrics.Measure.create rx_faulted) c.Experiments.Context.golden)

(* GENERALITY kernel: one AFE characterisation. *)
let afe_fixture = lazy (Afe.Afe_chain.create (Circuit.Process.fabricate ~seed:9001 ()))

let bench_afe_measure () = ignore (Afe.Afe_chain.measure (Lazy.force afe_fixture) Afe.Afe_config.nominal)

(* ENGINE kernels: the evaluation service's own costs.  Hit vs miss
   bounds what the cache buys per evaluation; the batch kernels time
   the same 8-key batch (a drained stream) on the sequential backend
   and on a 2-lane domain pool (caching off, so every iteration
   re-simulates — this measures throughput, not cache warmth).  Wider
   pools are not swept: the scheduler caps spawned workers at the
   hardware's parallelism (DESIGN §13), so on a 2-core host a 4- or
   8-lane request gets the same single worker as the 2-lane one. *)
let engine_cached = lazy (Engine.Service.create ~jobs:1 ~cache:true ())
let engine_uncached = lazy (Engine.Service.create ~jobs:1 ~cache:false ())
let engine_pool2 = lazy (Engine.Service.create ~jobs:2 ~cache:false ())

let engine_request =
  lazy
    (let c = Lazy.force ctx in
     Engine.Request.make
       ~die:(Engine.Request.die_of_receiver c.Experiments.Context.rx)
       ~standard:c.Experiments.Context.standard ~config:c.Experiments.Context.golden
       Engine.Request.Snr_mod)

let engine_batch =
  lazy
    (let c = Lazy.force ctx in
     let die = Engine.Request.die_of_receiver c.Experiments.Context.rx in
     let golden = Rfchain.Config.to_bits c.Experiments.Context.golden in
     List.init 8 (fun bit ->
         Engine.Request.make ~die ~standard:c.Experiments.Context.standard
           ~config:(Rfchain.Config.of_bits (Int64.logxor golden (Int64.shift_left 1L bit)))
           Engine.Request.Snr_mod))

let bench_engine_hit () =
  ignore (Engine.Service.eval ~engine:(Lazy.force engine_cached) (Lazy.force engine_request))

let bench_engine_miss () =
  ignore (Engine.Service.eval ~engine:(Lazy.force engine_uncached) (Lazy.force engine_request))

(* The same miss for an invalid key of the Fig. 7/9 ensemble with the
   comparator clock off and the calibration buffer in the path: the
   modulator modes the golden key never reaches, held to the same
   allocation budget as [engine:cache-miss]. *)
let engine_request_invalid =
  lazy
    (let c = Lazy.force ctx in
     let key = List.hd (Experiments.Context.invalid_ensemble ~n:1 c) in
     Engine.Request.make
       ~die:(Engine.Request.die_of_receiver c.Experiments.Context.rx)
       ~standard:c.Experiments.Context.standard
       ~config:{ key with Rfchain.Config.comp_clock_enable = false; cal_buffer_enable = true }
       Engine.Request.Snr_mod)

let bench_engine_miss_invalid () =
  ignore
    (Engine.Service.eval ~engine:(Lazy.force engine_uncached) (Lazy.force engine_request_invalid))

let bench_engine_batch engine () =
  ignore (Engine.Service.eval_batch ~engine:(Lazy.force engine) (Lazy.force engine_batch))

(* POOL kernel: the sharded scheduler's own claim/steal overhead,
   isolated from the simulator.  An eager 4-lane pool runs 256 no-op
   items dealt as single-index chunks, so every index crosses the
   submit -> queue -> claim (or steal) path; the per-item figure is
   the scheduling tax a real work item pays on top of its compute. *)
let steal_pool = lazy (Engine.Pool.create ~eager:true 3)

let bench_pool_steal () =
  Engine.Pool.drain (Engine.Pool.submit_stream ~chunk:1 (Lazy.force steal_pool) ignore 256)

(* [pool:wakeup-capped] times a default-chunk submit small enough that
   the wakeup budget (DESIGN §14) engages a single lane: the eager
   workers stay parked, so the figure is the cost of posting and
   completing a batch without poking any sleeping domain. *)
let bench_pool_wakeup_capped () =
  (* 8 no-op items under the default layout: ⌈8 / max_chunk⌉ = 1 lane
     engaged, three eager workers left asleep. *)
  Engine.Pool.drain (Engine.Pool.submit_stream (Lazy.force steal_pool) ignore 8)

(* TELEMETRY kernels: the instrumentation's own cost.  The disabled
   span is the price every instrumented call site pays on a plain run
   (the overhead policy says near-zero); counter increments are
   always-on, so their cost rides on every simulator step. *)
let telemetry_bench_counter = Telemetry.Counter.make "bench.telemetry_probe"

let bench_span_disabled () = Telemetry.Span.with_ ~name:"bench.disabled" (fun () -> ())
let bench_counter_incr () = Telemetry.Counter.incr telemetry_bench_counter

(* Cancellation-point cost: what every 4096-sample poll window pays in
   the simulator inner loops (no token installed, no interrupt — the
   common case). *)
let bench_cancel_poll () =
  for _ = 1 to 1_000 do
    Telemetry.Cancel.poll ()
  done

(* Checkpoint record cost: serialise + write + flush + fsync of one
   journal line, the per-cell durability price a checkpointed campaign
   pays.  Keys rotate so the dedup check never short-circuits the
   write. *)
let checkpoint_fixture =
  lazy
    (let path = Filename.temp_file "bench_ckpt" ".jsonl" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     match Engine.Checkpoint.load ~resume:false path with
     | Ok cp -> cp
     | Error c -> failwith (Engine.Checkpoint.corruption_to_string c))

let checkpoint_key_seq = ref 0

let bench_checkpoint_record () =
  let cp = Lazy.force checkpoint_fixture in
  incr checkpoint_key_seq;
  Engine.Checkpoint.record cp
    (Printf.sprintf "bench|%d" !checkpoint_key_seq)
    {
      Engine.Cache.measurement =
        { Metrics.Spec.snr_mod_db = 12.5; snr_rx_db = 9.25; sfdr_db = Some 44.0 };
      trial_cost = 1;
    }

(* Front-end hits.  [Measure] captures through
   [Receiver.run_stimulus], which keeps each domain's last front half
   (stimulus + VGLNA) per (die, stimulus, length, gain code) and reuses
   it.  A kernel that repeats one request every iteration therefore
   times the back half only, a front-end *hit*: fig7:snr-mod-per-key,
   fig9:snr-rx-per-key, fig10:psd-estimate, fig11:sweep-point,
   fig12:two-tone-sfdr, faults:campaign-cell, engine:cache-miss and
   engine:cache-miss-invalid.  fig8:transient-capture alternates two
   keys (hits where their gain codes agree); security:attack-trial draws a
   random key per iteration (a miss 15 times in 16); the engine:batch8
   kernels hit within one batch only where flipped bits keep the gain
   code; lot:die-calibration hits inside each die's calibration only.
   The committed BENCH_4.json entries of the first group were measured
   when every capture re-rendered and re-amplified its stimulus. *)
let tests =
  [
    Test.make ~name:"kernel:fft-8192" (Staged.stage bench_fft);
    Test.make ~name:"kernel:fft-complex-8192" (Staged.stage bench_fft_complex);
    Test.make ~name:"fig7:snr-mod-per-key" (Staged.stage bench_fig7_key);
    Test.make ~name:"fig8:transient-capture" (Staged.stage bench_fig8_transient);
    Test.make ~name:"fig9:snr-rx-per-key" (Staged.stage bench_fig9_key);
    Test.make ~name:"fig10:psd-estimate" (Staged.stage bench_fig10_psd);
    Test.make ~name:"fig11:sweep-point" (Staged.stage bench_fig11_point);
    Test.make ~name:"fig12:two-tone-sfdr" (Staged.stage bench_fig12_sfdr);
    Test.make ~name:"security:attack-trial" (Staged.stage bench_security_trial);
    Test.make ~name:"compare:baseline-probes" (Staged.stage bench_compare_probes);
    Test.make ~name:"calibration:osc-tune" (Staged.stage bench_osc_tune);
    Test.make ~name:"lot:die-calibration" (Staged.stage bench_lot_die);
    Test.make ~name:"onchip:alu-evaluation" (Staged.stage bench_onchip_alu);
    Test.make ~name:"faults:campaign-cell" (Staged.stage bench_faults_cell);
    Test.make ~name:"generality:afe-measure" (Staged.stage bench_afe_measure);
    Test.make ~name:"engine:cache-hit" (Staged.stage bench_engine_hit);
    Test.make ~name:"engine:cache-miss" (Staged.stage bench_engine_miss);
    Test.make ~name:"engine:cache-miss-invalid" (Staged.stage bench_engine_miss_invalid);
    Test.make ~name:"engine:batch8-1domain" (Staged.stage (bench_engine_batch engine_uncached));
    Test.make ~name:"engine:batch8-2domains" (Staged.stage (bench_engine_batch engine_pool2));
    (* The engine kernels must run before any pool:* kernel forces the
       eager 3-worker fixture into existence: from that point on every
       minor GC pays the parked-domain barrier tax (§13), which would
       double an allocation-heavy kernel's figure.  The zero-allocation
       pool kernels are immune to the ordering. *)
    Test.make ~name:"pool:steal" (Staged.stage bench_pool_steal);
    Test.make ~name:"pool:wakeup-capped" (Staged.stage bench_pool_wakeup_capped);
    Test.make ~name:"telemetry:span-disabled" (Staged.stage bench_span_disabled);
    Test.make ~name:"telemetry:counter-incr" (Staged.stage bench_counter_incr);
    Test.make ~name:"telemetry:cancel-poll-1k" (Staged.stage bench_cancel_poll);
    Test.make ~name:"engine:checkpoint-record" (Staged.stage bench_checkpoint_record);
  ]

let bench_json_file = "BENCH_4.json"

(* Machine-readable perf trajectory (schema bench-kernels/2, stamped
   with a run manifest), sorted by name so re-runs diff cleanly. *)
let write_json ~out results =
  let kernels =
    List.map
      (fun (name, ns, mwd) ->
        { Benchkit.Bench_json.name; ns_per_run = ns; minor_words_per_run = mwd })
      results
  in
  let manifest = Telemetry.Manifest.create () in
  Telemetry.Manifest.finish ~exit_status:0 manifest;
  Benchkit.Bench_json.write ~path:out ~manifest kernels;
  Printf.printf "\nwrote %s (%d kernels)\n" out (List.length kernels)

(* The regression gate: compare this run against a committed baseline
   (v1 or v2); any regression or — for full runs — missing kernel is
   fatal (exit 4) so CI fails the build. *)
let compare_against ~baseline_path ~require_all results =
  match Benchkit.Bench_json.read baseline_path with
  | Error reason ->
    Printf.eprintf "bench: cannot read baseline %s: %s\n" baseline_path reason;
    exit 4
  | Ok baseline ->
    let current =
      List.map
        (fun (name, ns, mwd) ->
          { Benchkit.Bench_json.name; ns_per_run = ns; minor_words_per_run = mwd })
        results
    in
    let comparisons =
      Benchkit.Bench_json.compare_results ~baseline:baseline.Benchkit.Bench_json.kernels
        ~current ~require_all
    in
    let bad = Benchkit.Bench_json.regressions comparisons in
    Printf.printf "\n## Regression gate vs %s (schema v%d)\n" baseline_path
      baseline.Benchkit.Bench_json.schema;
    List.iter (fun c -> Printf.printf "  %s\n" (Benchkit.Bench_json.verdict_to_string c))
      (if bad = [] then comparisons else bad);
    if bad = [] then Printf.printf "  gate: PASS (%d kernels)\n" (List.length comparisons)
    else begin
      Printf.printf "  gate: FAIL (%d regression%s)\n" (List.length bad)
        (if List.length bad = 1 then "" else "s");
      exit 4
    end

let run_benchmarks ~fast ~json ~out ~compare_to ~only () =
  print_endline "## Bechamel timings (one Test per figure/table kernel)";
  let limit, quota = if fast then (20, 0.25) else (50, 1.0) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = Toolkit.Instance.minor_allocated in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let pretty_ns ns =
    if ns < 1e3 then Printf.sprintf "%.0f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  let estimate instance raw =
    let v = ref nan in
    if Sys.getenv_opt "BENCH_DEBUG" <> None then
      Hashtbl.iter
        (fun name result -> Fmt.pr "DEBUG %s: %a@." name Analyze.OLS.pp result)
        (Analyze.all ols instance raw);
    Hashtbl.iter
      (fun _ result ->
        match Analyze.OLS.estimates result with
        | Some [ x ] -> v := x
        | Some _ | None -> ())
      (Analyze.all ols instance raw)
    ;
    !v
  in
  let contains s sub =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    lb = 0 || go 0
  in
  let selected =
    List.filter
      (fun t -> match only with None -> true | Some s -> contains (Test.name t) s)
      tests
  in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg [ clock; alloc ] test in
        (Test.name test, estimate clock raw, estimate alloc raw))
      selected
  in
  List.iter
    (fun (name, ns, mwd) ->
      Printf.printf "  %-28s %12s / run  %10.0f mWd / run\n" name (pretty_ns ns) mwd)
    (List.sort compare results);
  if json then write_json ~out:(Option.value out ~default:bench_json_file) results;
  (match compare_to with
  | None -> ()
  | Some baseline_path -> compare_against ~baseline_path ~require_all:(only = None) results);
  (* Absolute allocation budgets (make alloc-smoke): unlike the
     baseline gate these are baseline-free, so a regenerated
     BENCH_4.json cannot quietly ratchet a reintroduced per-stage
     copy into the committed "normal". *)
  let budgeted =
    Benchkit.Bench_json.check_budgets
      (List.map
         (fun (name, ns, mwd) ->
           { Benchkit.Bench_json.name; ns_per_run = ns; minor_words_per_run = mwd })
         results)
  in
  if budgeted <> [] then begin
    let bad = Benchkit.Bench_json.regressions budgeted in
    Printf.printf "\n## Allocation budgets (arena-converted kernels)\n";
    List.iter
      (fun c -> Printf.printf "  %s\n" (Benchkit.Bench_json.verdict_to_string c))
      (if bad = [] then budgeted else bad);
    if bad = [] then Printf.printf "  budgets: PASS (%d kernels)\n" (List.length budgeted)
    else begin
      Printf.printf "  budgets: FAIL (%d kernel%s over budget)\n" (List.length bad)
        (if List.length bad = 1 then "" else "s");
      exit 4
    end
  end;
  (* Anchor the attack-cost table with the measured behavioural-sim
     trial time: even a simulator millions of times faster than the
     paper's 20-minute transistor-level runs leaves brute force
     hopeless. *)
  match List.find_opt (fun (name, _, _) -> name = "security:attack-trial") results with
  | Some (_, ns, _) when Float.is_finite ns ->
    let seconds = ns /. 1e9 in
    Printf.printf
      "\nmeasured behavioural trial: %s -> full key search at this rate: %s\n"
      (pretty_ns ns)
      (Attacks.Cost.seconds_to_human (seconds *. Attacks.Cost.expected_brute_force_trials))
  | Some _ | None -> ()

let run_harness () =
  let c = Lazy.force ctx in
  print_endline "\n## Full-size regeneration harness (paper figures and tables)\n";
  Experiments.Fig7_fig9.print (Experiments.Fig7_fig9.run c);
  print_newline ();
  Experiments.Fig8.print (Experiments.Fig8.run c);
  print_newline ();
  Experiments.Fig10.print (Experiments.Fig10.run c);
  print_newline ();
  Experiments.Fig11.print c (Experiments.Fig11.run c);
  print_newline ();
  Experiments.Fig12.print c (Experiments.Fig12.run c);
  print_newline ();
  Experiments.Security_table.print (Experiments.Security_table.run c);
  print_newline ();
  Experiments.Compare_table.print (Experiments.Compare_table.run c);
  print_newline ();
  Experiments.Ablations.print c (Experiments.Ablations.run c);
  print_newline ();
  Experiments.Onchip_lock.print c (Experiments.Onchip_lock.run c);
  print_newline ();
  let aging = Experiments.Aging_study.run c in
  Experiments.Aging_study.print aging;
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    (Experiments.Aging_study.checks c aging);
  print_newline ();
  let avalanche = Experiments.Avalanche.run c in
  Experiments.Avalanche.print avalanche;
  List.iter
    (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
    (Experiments.Avalanche.checks c avalanche);
  print_newline ();
  Experiments.Lot_study.print (Experiments.Lot_study.run ~lot:4 ~seed_base:6000 c.Experiments.Context.standard);
  print_newline ();
  (match Faults.Campaign.run ~dies:2 ~seed:c.Experiments.Context.seed c.Experiments.Context.standard with
  | Ok campaign -> Faults.Report.print campaign
  | Error e -> print_endline (Faults.Error.to_string e));
  print_newline ();
  Experiments.Generality.print (Experiments.Generality.run ())

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let metrics = Array.exists (( = ) "--metrics") Sys.argv in
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let json = Array.exists (( = ) "--json") Sys.argv in
  let arg_value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: tl -> find tl
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let only = arg_value "--only" in
  let out = arg_value "--out" in
  let compare = arg_value "--compare" in
  if metrics then Telemetry.Control.set_enabled true;
  Printf.printf "calibrating the reference die ...\n%!";
  let c = Lazy.force ctx in
  Printf.printf "reference calibration: SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f dB\n\n%!"
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_mod_db
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_rx_db
    c.Experiments.Context.calibration.Calibration.Calibrate.sfdr_db;
  run_benchmarks ~fast ~json ~out ~compare_to:compare ~only ();
  if not quick then run_harness ();
  if metrics then begin
    print_newline ();
    Telemetry.Export.summary_table ()
  end
