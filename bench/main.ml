(* Bechamel kernels for what the repository benchmark (perfbench/) does
   not time: the absolute allocation budgets, the engine and pool
   overheads, the telemetry overhead and the models outside the
   receiver chain (baselines, on-chip ALU, AFE).  Receiver stages,
   spectra, calibration, journal records and attack queries are timed
   by perfbench's traced ledger (`make perf-smoke`); `repro all` and
   `repro faults` regenerate the figures and tables.

   Flags: --fast (short quota), --only SUBSTRING, --out PATH (write a
   bench-kernels/2 file), --compare PATH (regression gate, exit 4),
   --metrics (telemetry summary on exit). *)

open Bechamel

(* Shared fixture, built once: a calibrated die. *)
let ctx = lazy (Experiments.Context.create ())

(* FIG7 kernel: one key evaluated through the modulator. *)
let bench_fig7_key () =
  let c = Lazy.force ctx in
  let bench = Metrics.Measure.create c.Experiments.Context.rx in
  ignore (Metrics.Measure.snr_mod_db bench c.Experiments.Context.golden)

(* FIG8 kernel: a transient capture. *)
let bench_fig8_transient () =
  let c = Lazy.force ctx in
  ignore (Experiments.Fig8.run ~window:64 c)

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

(* CMP-TABLE kernel: the full baseline corruption probe set. *)
let bench_compare_probes () = ignore (Baselines.Compare.corruption_probes ())

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

(* POOL kernels: the scheduler's own overhead, isolated from the
   simulator.  [pool:claim] runs 256 no-op items on an eager 4-lane
   pool as single-index chunks, so every index costs one claim on the
   job's shared cursor plus one completion; the per-item figure is the
   scheduling tax a real work item pays on top of its compute. *)
let claim_pool = lazy (Engine.Pool.create ~eager:true 3)

let bench_pool_claim () =
  Engine.Pool.drain (Engine.Pool.submit_stream ~chunk:1 (Lazy.force claim_pool) ignore 256)

(* [pool:wakeup-capped] times a default-chunk submit small enough that
   the wakeup budget (DESIGN §14) has use for the caller's lane only:
   8 no-op items fit one chunk, no worker is signalled and the three
   eager workers stay parked, so the figure is the cost of posting and
   completing a batch without poking any sleeping domain. *)
let bench_pool_wakeup_capped () =
  Engine.Pool.drain (Engine.Pool.submit_stream (Lazy.force claim_pool) ignore 8)

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

(* Front-end hits.  [Measure] captures through
   [Receiver.capture_modulator] / [capture_baseband], which keep each
   domain's last front half (stimulus + VGLNA) per (die, stimulus,
   length, gain code) and reuse it.  A kernel that repeats one request
   every iteration therefore times the back half only, a front-end
   *hit*: fig7:snr-mod-per-key, fig11:sweep-point, fig12:two-tone-sfdr,
   faults:campaign-cell, engine:cache-miss and
   engine:cache-miss-invalid.
   fig8:transient-capture alternates two keys (hits where their gain
   codes agree); the engine:batch8 kernels hit within one batch only
   where flipped bits keep the gain code. *)
let tests =
  [
    Test.make ~name:"fig7:snr-mod-per-key" (Staged.stage bench_fig7_key);
    Test.make ~name:"fig8:transient-capture" (Staged.stage bench_fig8_transient);
    Test.make ~name:"fig11:sweep-point" (Staged.stage bench_fig11_point);
    Test.make ~name:"fig12:two-tone-sfdr" (Staged.stage bench_fig12_sfdr);
    Test.make ~name:"compare:baseline-probes" (Staged.stage bench_compare_probes);
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
       double an allocation-heavy kernel's figure. *)
    Test.make ~name:"pool:claim" (Staged.stage bench_pool_claim);
    Test.make ~name:"pool:wakeup-capped" (Staged.stage bench_pool_wakeup_capped);
    Test.make ~name:"telemetry:span-disabled" (Staged.stage bench_span_disabled);
    Test.make ~name:"telemetry:counter-incr" (Staged.stage bench_counter_incr);
    Test.make ~name:"telemetry:cancel-poll-1k" (Staged.stage bench_cancel_poll);
  ]

(* Minor words allocated by the calling domain, exact at every read.
   Bechamel's stock [minor_allocated] reads [Gc.quick_stat], whose
   minor-word count only advances at minor collections on OCaml 5, so
   a kernel that allocated between two collections read 0. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Machine-readable perf trajectory (schema bench-kernels/2, stamped
   with a run manifest), sorted by name so re-runs diff cleanly. *)
let write_json ~out kernels =
  let manifest = Telemetry.Manifest.create () in
  Telemetry.Manifest.finish ~exit_status:0 manifest;
  Benchkit.Bench_json.write ~path:out ~manifest kernels;
  Printf.printf "\nwrote %s (%d kernels)\n" out (List.length kernels)

(* Print a gate's verdicts (only the failing ones when any fail) and
   exit 4 on a failure, so CI fails the build. *)
let report_gate ~title ~label ~fail comparisons =
  let bad = Benchkit.Bench_json.regressions comparisons in
  Printf.printf "\n## %s\n" title;
  List.iter (fun c -> Printf.printf "  %s\n" (Benchkit.Bench_json.verdict_to_string c))
    (if bad = [] then comparisons else bad);
  if bad = [] then Printf.printf "  %s: PASS (%d kernels)\n" label (List.length comparisons)
  else begin
    Printf.printf "  %s: FAIL (%d %s)\n" label (List.length bad) fail;
    exit 4
  end

let run_benchmarks ~fast ~out ~compare_to ~only () =
  print_endline "## Bechamel timings";
  let limit, quota = if fast then (20, 0.25) else (50, 1.0) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
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
        let raw = Benchmark.all cfg [ clock; minor_words ] test in
        {
          Benchkit.Bench_json.name = Test.name test;
          ns_per_run = estimate clock raw;
          minor_words_per_run = estimate minor_words raw;
        })
      selected
  in
  List.iter
    (fun k ->
      Printf.printf "  %-28s %12s / run  %10.0f mWd / run\n" k.Benchkit.Bench_json.name
        (pretty_ns k.ns_per_run) k.minor_words_per_run)
    (List.sort compare results);
  Option.iter (fun out -> write_json ~out results) out;
  (* The regression gate: compare this run against a committed
     baseline; any regression or — for full runs — missing kernel is
     fatal. *)
  Option.iter
    (fun baseline_path ->
      match Benchkit.Bench_json.read baseline_path with
      | Error reason ->
        Printf.eprintf "bench: cannot read baseline %s: %s\n" baseline_path reason;
        exit 4
      | Ok baseline ->
        report_gate ~title:("Regression gate vs " ^ baseline_path) ~label:"gate" ~fail:"regressed"
          (Benchkit.Bench_json.compare_results ~baseline:baseline.Benchkit.Bench_json.kernels
             ~current:results ~require_all:(only = None)))
    compare_to;
  (* Absolute allocation budgets (make alloc-smoke): unlike the
     baseline gate these are baseline-free, so a regenerated
     BENCH_4.json cannot quietly ratchet a reintroduced per-stage
     copy into the committed "normal". *)
  match Benchkit.Bench_json.check_budgets results with
  | [] -> ()
  | budgeted ->
    report_gate ~title:"Allocation budgets (arena-converted kernels)" ~label:"budgets"
      ~fail:"over budget" budgeted

let () =
  let flag f = Array.exists (( = ) f) Sys.argv in
  let arg_value name =
    let rec find = function
      | f :: v :: _ when f = name -> Some v
      | _ :: tl -> find tl
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let metrics = flag "--metrics" in
  if metrics then Telemetry.Control.set_enabled true;
  Printf.printf "calibrating the reference die ...\n%!";
  let c = Lazy.force ctx in
  Printf.printf "reference calibration: SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f dB\n\n%!"
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_mod_db
    c.Experiments.Context.calibration.Calibration.Calibrate.snr_rx_db
    c.Experiments.Context.calibration.Calibration.Calibrate.sfdr_db;
  run_benchmarks ~fast:(flag "--fast") ~out:(arg_value "--out")
    ~compare_to:(arg_value "--compare") ~only:(arg_value "--only") ();
  if metrics then begin
    print_newline ();
    Telemetry.Export.summary_table ()
  end
