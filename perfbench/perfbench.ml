(* The repository benchmark.

     perfbench --workload key-sweep|attack|campaign --seed N --seconds S --trace 0|1

   [--seed N] picks one of the recorded input sets ([input_seeds], by
   N mod their count); every measurement of a run is digested and
   compared bit for bit with the reference recorded for that input set
   (perfbench/reference.tsv), and the exact work counts with it.

   With --trace 0 the workload is repeated, each pass on a freshly set
   up engine, until S seconds have passed, and the end-to-end metrics
   are printed.  With --trace 1 a separate traced run times every call
   the benchmark makes into a layer, replays the request mix through
   the stage ledger, and prints the per-layer metrics; the spans are
   written to .perfbench/trace-<workload>-<seed>.jsonl at exit.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

(* Die seeds on which the attack pass does the same amount of work:
   full search budgets (550 fast probes) and 38-43 escalations to the
   full check, 10.45-11.26 M samples.  Over arbitrary die seeds the
   attack's work ranges from 4.5 M to 40 M samples, which would make
   run-to-run spread a property of the seed rather than of the code.
   The key sweep and the campaign do the same work on any die. *)
let input_seeds = [| 212; 249; 308; 343; 357; 369; 382; 17; 38; 31; 132; 151 |]

(* Counters whose deltas are exact work counts: they must repeat
   exactly for one input set.  Pool steals depend on scheduling and
   are reported, never compared. *)
let exact_counters =
  [
    "receiver.runs";
    "receiver.samples";
    "sdm.steps";
    "sdm.osc_probes";
    "measure.trials";
    "engine.evals";
    "engine.cache.hit";
    "engine.cache.miss";
    "engine.checkpoint.hits";
    "engine.checkpoint.records";
    "engine.denied";
    "oracle.queries";
    "faults.cells";
  ]

let counter_names = "pool.steal.count" :: exact_counters

let snapshot () =
  let all = Telemetry.Counter.snapshot () in
  List.map (fun n -> (n, Option.value ~default:0 (List.assoc_opt n all))) counter_names

let count counts name = Option.value ~default:0 (List.assoc_opt name counts)

(* Requests served: computed results plus cache and journal hits. *)
let requests counts =
  count counts "engine.evals" + count counts "engine.cache.hit" + count counts "engine.checkpoint.hits"

let seconds_since t0 = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0)

type pass = {
  setup_s : float;
  wall_s : float;
  digest : (string, string) result;
  counts : (string * int) list;
  minor_words : float;
}

let run_pass (w : Workloads.t) ~seed ~out_dir =
  let t0 = Telemetry.Clock.now_ns () in
  let inst = w.Workloads.setup ~seed ~out_dir in
  let setup_s = seconds_since t0 in
  let c0 = snapshot () in
  let m0 = Gc.minor_words () in
  let t1 = Telemetry.Clock.now_ns () in
  let digest = try Ok (inst.Workloads.section ()) with e -> Error (Printexc.to_string e) in
  let wall_s = seconds_since t1 in
  let minor_words = Gc.minor_words () -. m0 in
  let c1 = snapshot () in
  inst.Workloads.teardown ();
  let counts = List.map2 (fun (n, a) (_, b) -> (n, b - a)) c0 c1 in
  ({ setup_s; wall_s; digest; counts; minor_words }, inst)

(* ---- reference digests and counts ---- *)

let exact_of counts = List.map (fun n -> (n, count counts n)) exact_counters

let counts_to_string counts =
  String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) (exact_of counts))

let load_reference path =
  let table = Hashtbl.create 64 in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          match String.split_on_char '\t' (input_line ic) with
          | [ w; seed; digest; counts ] when w.[0] <> '#' ->
            Hashtbl.replace table (w, int_of_string seed) (digest, counts)
          | _ -> ()
        done
      with End_of_file -> ());
  table

(* Everything that makes a run's outputs wrong: an exception, passes
   that disagree with each other, or a disagreement with the reference
   recorded for this input set. *)
let problems ~reference ~name ~seed passes =
  let errors = List.filter_map (fun p -> Result.fold ~ok:(fun _ -> None) ~error:Option.some p.digest) passes in
  let first = List.hd passes in
  let drift what f = if List.exists (fun p -> f p <> f first) passes then [ what ^ " drift between passes" ] else [] in
  let against =
    match reference with
    | None -> []
    | Some table -> (
      match Hashtbl.find_opt table (name, seed) with
      | None -> [ Printf.sprintf "no reference recorded for %s at seed %d" name seed ]
      | Some (digest, counts) ->
        (if first.digest <> Ok digest then [ "output digest differs from the reference" ] else [])
        @ if counts_to_string first.counts <> counts then [ "work counts differ from the reference" ] else [])
  in
  errors @ drift "output digest" (fun p -> p.digest) @ drift "work count" (fun p -> exact_of p.counts) @ against

(* ---- output ---- *)

let median = Ledger.median

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-38s %16.6g %s\n" name v unit) rows

let report ~problems ~attempted ~failed metrics =
  List.iter (fun p -> Printf.printf "  [FAIL] %s\n" p) problems;
  let failed = if problems = [] then failed else attempted in
  print_table "metrics:"
    (metrics @ [ ("fail_ratio", "ratio", float failed /. float (max 1 attempted)) ]);
  print_result ~correct:(problems = []) ~attempted:(max 1 attempted) ~failed metrics

(* ---- timed run: end-to-end metrics ---- *)

let timed w ~seed ~seconds ~out_dir ~reference =
  let t0 = Telemetry.Clock.now_ns () in
  let rec loop acc =
    if List.length acc >= 2 && seconds_since t0 >= seconds then List.rev acc
    else loop (fst (run_pass w ~seed ~out_dir) :: acc)
  in
  let passes = loop [] in
  let rate f = median (List.map (fun p -> f p /. p.wall_s) passes) in
  let attempted = List.fold_left (fun acc p -> acc + requests p.counts) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + count p.counts "engine.denied") 0 passes in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  Printf.printf "passes: %d; wall_s per pass: %s\ncounts per pass: %s\n" (List.length passes)
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall_s) passes))
    (counts_to_string (List.hd passes).counts);
  report
    ~problems:(problems ~reference ~name:w.Workloads.name ~seed passes)
    ~attempted ~failed
    [
      ("setup_s", "s", median (List.map (fun p -> p.setup_s) passes));
      ("wall_s", "s", median (List.map (fun p -> p.wall_s) passes));
      ("evals_per_s", "1/s", rate (fun p -> float (requests p.counts)));
      ("sim_msamples_per_s", "M/s", rate (fun p -> float (count p.counts "receiver.samples") /. 1e6));
      ("top_heap_mb", "MB", float top_heap_bytes /. 1e6);
    ]

(* ---- traced run: per-layer metrics ---- *)

let traced w ~seed ~out_dir ~reference =
  let plain () = fst (run_pass w ~seed ~out_dir) in
  let p1 = plain () in
  Trace.enabled := true;
  let p, inst = Trace.with_rid "workload" (fun () -> run_pass w ~seed ~out_dir) in
  Trace.enabled := false;
  let p2 = plain () in
  let counts = p.counts in
  let name = w.Workloads.name in
  Trace.enabled := true;
  let ledger =
    Ledger.run ~out_dir ~runs:(count counts "receiver.runs")
      ~samples:(count counts "receiver.samples") ~with_sfdr:(name <> "key-sweep")
      ~with_attack:(name <> "attack") (inst.Workloads.fixture ())
  in
  Trace.enabled := false;
  let totals = Trace.totals () in
  let total n = List.assoc_opt n totals in
  let ms n = match total n with Some t -> Telemetry.Clock.ns_to_ms t.Trace.total_ns | None -> 0.0 in
  let per_call n = match total n with Some t -> ms n /. float t.Trace.calls | None -> 0.0 in
  let samples = float ledger.Ledger.stage_samples in
  let ns_per_sample n = ms n *. 1e6 /. samples in
  let stages = [ "rfchain.vglna"; "rfchain.sdm.create"; "rfchain.sdm.run"; "rfchain.mixer"; "rfchain.decimator" ] in
  let receiver = ms "rfchain.receiver.run" in
  let unattributed = (receiver -. List.fold_left (fun acc s -> acc +. ms s) 0.0 stages) /. receiver in
  let plain_s = (p1.wall_s +. p2.wall_s) /. 2.0 in
  let hits = count counts "engine.cache.hit" and misses = count counts "engine.cache.miss" in
  let query_ms =
    match ledger.Ledger.query_ms with
    | Some q -> q
    | None ->
      (ms "attacks.optimize.simulated_annealing" +. ms "attacks.optimize.genetic")
      /. float (max 1 (count counts "oracle.queries"))
  in
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" name seed) in
  at_exit (fun () -> Trace.write path);
  Printf.printf "self times (ms):\n";
  List.iter
    (fun (n, t) ->
      Printf.printf "  %-40s %6d calls %12.3f total %12.3f self\n" n t.Trace.calls
        (Telemetry.Clock.ns_to_ms t.Trace.total_ns) (Telemetry.Clock.ns_to_ms t.Trace.self_ns))
    totals;
  Printf.printf "ledger: %d records, %d samples; spans -> %s\n" ledger.Ledger.records
    ledger.Ledger.stage_samples path;
  let closure_problem =
    if name <> "campaign" && not (unattributed <= 0.10) then
      [ Printf.sprintf "stage ledger does not close: %.1f%% of Receiver.run unattributed" (100.0 *. unattributed) ]
    else []
  in
  let exactness =
    (if ledger.Ledger.replica_exact then [] else [ "stage-by-stage chain differs from Receiver.run" ])
    @ if ledger.Ledger.engine_exact then [] else [ "Service.eval differs from Measure" ]
  in
  let c n = float (count counts n) in
  report
    ~problems:(problems ~reference ~name ~seed [ p1; p; p2 ] @ closure_problem @ exactness)
    ~attempted:(requests p1.counts + requests counts + requests p2.counts + ledger.Ledger.records)
    ~failed:(count p1.counts "engine.denied" + count counts "engine.denied" + count p2.counts "engine.denied")
    [
      ("rfchain.sdm.ns_per_sample", "ns", ns_per_sample "rfchain.sdm.run");
      ("rfchain.vglna.ns_per_sample", "ns", ns_per_sample "rfchain.vglna");
      ("rfchain.mixer.ns_per_sample", "ns", ns_per_sample "rfchain.mixer");
      ("rfchain.decimator.ns_per_sample", "ns", ns_per_sample "rfchain.decimator");
      ("rfchain.sdm.create_us", "us", 1000.0 *. ms "rfchain.sdm.create.batch" /. 200.0);
      ("rfchain.receiver.ns_per_sample", "ns", ns_per_sample "rfchain.receiver.run");
      ("rfchain.receiver.unattributed_share", "ratio", unattributed);
      ("sigkit.waveform.ms_per_record", "ms", ms "sigkit.waveform" /. samples *. float Ledger.long_len);
      ("sigkit.spectrum.periodogram_us", "us", 1000.0 *. per_call "sigkit.spectrum.periodogram");
      ("metrics.snr.bandpass_us", "us", 1000.0 *. per_call "metrics.snr.bandpass");
      ("metrics.snr.baseband_iq_us", "us", 1000.0 *. per_call "metrics.snr.baseband_iq");
      ("metrics.sfdr_us", "us", 1000.0 *. per_call "metrics.sfdr");
      ("engine.overhead_us_per_eval", "us", median ledger.Ledger.overhead_us);
      ("engine.cache.hit_ratio", "ratio", float hits /. float (max 1 (hits + misses)));
      ("engine.checkpoint.record_ms", "ms", per_call "engine.checkpoint.record");
      ("engine.pool.steals", "count", c "pool.steal.count");
      ("gc.minor_words_per_eval", "words", p.minor_words /. float (max 1 (requests counts)));
      ("calibration.die_ms", "ms", per_call "calibration.die");
      ("calibration.osc_tune_ms", "ms", per_call "calibration.osc_tune");
      ("attacks.query_ms", "ms", query_ms);
      ("faults.cell_ms", "ms", per_call "faults.cell");
      ("trace.overhead_share", "ratio", (p.wall_s -. plain_s) /. plain_s);
      ("rfchain.receiver.samples", "count", c "receiver.samples");
      ("rfchain.sdm.steps", "count", c "sdm.steps");
      ("rfchain.sdm.osc_probes", "count", c "sdm.osc_probes");
      ("metrics.trials", "count", c "measure.trials");
      ("engine.requests", "count", float (requests counts));
      ("engine.evals", "count", c "engine.evals");
      ("engine.cache.misses", "count", c "engine.cache.miss");
      ("attacks.oracle.queries", "count", c "oracle.queries");
      ("faults.cells", "count", c "faults.cells");
      ("engine.checkpoint.records", "count", c "engine.checkpoint.records");
    ]

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let input_seed = ref None and record = ref false in
  let out_dir = ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME key-sweep | attack | campaign");
      ("--seed", Arg.Set_int seed, "N selects input set N mod 16");
      ("--seconds", Arg.Set_float seconds, "S how long the timed run measures");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ( "--input-seed",
        Arg.Int (fun s -> input_seed := Some s),
        "S use this die seed directly (no reference check: passes must agree)" );
      ("--record", Arg.Set record, " print the reference line for the input set and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let n = Array.length input_seeds in
  let seed = match !input_seed with Some s -> s | None -> input_seeds.(((!seed mod n) + n) mod n) in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf "perfbench %s: die seed %d, %d lane(s), %s\n%!" w.Workloads.name seed
    w.Workloads.lanes
    (if !trace = 1 then "traced" else Printf.sprintf "%.0f s timed" !seconds);
  if !record then begin
    let p, _ = run_pass w ~seed ~out_dir in
    match p.digest with
    | Ok d -> Printf.printf "%s\t%d\t%s\t%s\n" w.Workloads.name seed d (counts_to_string p.counts)
    | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 1
  end
  else begin
    let reference =
      if !input_seed = None then Some (load_reference "perfbench/reference.tsv") else None
    in
    if !trace = 1 then traced w ~seed ~out_dir ~reference
    else timed w ~seed ~seconds:!seconds ~out_dir ~reference
  end
