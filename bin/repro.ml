(* repro — regenerate every figure and table of the paper's evaluation.

   Subcommands map one-to-one onto the experiment index in DESIGN.md:
   fig7 fig8 fig9 fig10 fig11 fig12 security compare ablations
   calibrate all. *)

open Cmdliner

let seed_arg =
  let doc = "Die seed (the manufactured chip's identity)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let standard_arg =
  let doc = "Target standard (bluetooth, zigbee, wifi-802.11b, lower-band-1.5GHz, max-3GHz)." in
  Arg.(value & opt string "max-3GHz" & info [ "standard" ] ~docv:"NAME" ~doc)

let keys_arg =
  let doc = "Number of random invalid keys in the ensemble." in
  Arg.(value & opt int 100 & info [ "keys" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Trial budget per empirical attack." in
  Arg.(value & opt int 400 & info [ "budget" ] ~docv:"N" ~doc)

(* Telemetry plumbing shared by every subcommand: `--metrics` prints
   the span/counter summary on exit, `--trace FILE` writes a Chrome
   trace_event file (open in chrome://tracing or Perfetto), and
   `--trace-jsonl FILE` writes the raw event stream.  Any of the three
   enables span collection; with none of them, telemetry spans stay
   disabled and the run is byte-identical to an uninstrumented build. *)
let telemetry_term =
  let metrics_arg =
    let doc = "Print the telemetry summary table (spans, counters, histograms) on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace_arg =
    let doc = "Write a Chrome trace_event JSON trace to $(docv) on exit." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_jsonl_arg =
    let doc = "Write the telemetry event stream as JSON lines to $(docv) on exit." in
    Arg.(value & opt (some string) None & info [ "trace-jsonl" ] ~docv:"FILE" ~doc)
  in
  let setup metrics trace trace_jsonl =
    if metrics || trace <> None || trace_jsonl <> None then begin
      Telemetry.Control.set_enabled true;
      at_exit (fun () ->
          Option.iter Telemetry.Export.write_chrome_trace trace;
          Option.iter Telemetry.Export.write_jsonl trace_jsonl;
          if metrics then begin
            print_newline ();
            Telemetry.Export.summary_table ()
          end)
    end
  in
  Term.(const setup $ metrics_arg $ trace_arg $ trace_jsonl_arg)

(* The process exit status, recorded on every deliberate exit path so
   the at_exit manifest writer can stamp it (at_exit handlers cannot
   see the exit code themselves). *)
let exit_status_r : int option ref = ref None

let exit_with code =
  exit_status_r := Some code;
  exit code

(* Run provenance and logs: `--log-level` and `--log-jsonl` drive the
   structured logger, and `--manifest FILE` writes a run-provenance
   record at exit.  None of it touches stdout, so figure output stays
   byte-identical. *)
let provenance_term =
  let log_level_arg =
    let doc = "Log threshold for stderr/JSONL structured logging (debug|info|warn|error)." in
    Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_jsonl_arg =
    let doc = "Also write structured log events as JSON lines to $(docv)." in
    Arg.(value & opt (some string) None & info [ "log-jsonl" ] ~docv:"FILE" ~doc)
  in
  let manifest_arg =
    let doc = "Write a run-provenance manifest (argv, seed, engine hash, timestamps) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let setup log_level log_jsonl manifest =
    Option.iter
      (fun s ->
        match Telemetry.Log.level_of_string s with
        | Some l -> Telemetry.Log.set_level l
        | None ->
          Printf.eprintf "unknown log level %s (use debug|info|warn|error)\n" s;
          exit 2)
      log_level;
    Option.iter Telemetry.Log.to_file log_jsonl;
    Option.iter
      (fun path ->
        let m = Telemetry.Manifest.create () in
        at_exit (fun () ->
            Telemetry.Manifest.finish ?exit_status:!exit_status_r m;
            try Telemetry.Manifest.write path m
            with Sys_error reason -> Printf.eprintf "cannot write manifest %s: %s\n" path reason))
      manifest
  in
  Term.(const setup $ log_level_arg $ log_jsonl_arg $ manifest_arg)

(* Engine plumbing shared by every subcommand: `--jobs N` selects the
   multicore backend (N >= 2 hands batched evaluations to a fixed pool
   of N-1 worker domains plus the caller; results are byte-identical to
   `--jobs 1`), `--no-cache` disables the content-addressed result
   cache (every evaluation re-runs the simulator), `--checkpoint FILE`
   journals every completed evaluation (with `--resume` replaying an
   existing journal), and `--deadline SECONDS` bounds the whole run. *)
let engine_term =
  let jobs_arg =
    let doc =
      "Worker domains for batched evaluations (1 = sequential; output is identical either way)."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the evaluation result cache (re-simulate every request)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Journal every completed evaluation to $(docv) (append-only JSON lines, fsync'd per \
       record).  An interrupted run can be resumed with $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Replay the completed evaluations of an existing $(b,--checkpoint) journal instead of \
       truncating it; only missing cells are recomputed.  The final output is byte-identical \
       to an uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Abort the run once $(docv) seconds of wall clock have passed; in-flight evaluations \
       stop at their next cancellation poll and completed work stays journalled."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let setup jobs no_cache checkpoint resume deadline =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
      exit 2
    end;
    (match deadline with
    | Some d when d <= 0.0 ->
      Printf.eprintf "--deadline must be positive (got %g)\n" d;
      exit 2
    | _ -> ());
    if resume && checkpoint = None then begin
      Printf.eprintf "--resume requires --checkpoint FILE\n";
      exit 2
    end;
    let checkpoint =
      match checkpoint with
      | None -> None
      | Some path -> (
        match Engine.Checkpoint.load ~resume path with
        | Ok cp ->
          at_exit (fun () -> Engine.Checkpoint.close cp);
          Some cp
        | Error { Engine.Checkpoint.path; line; reason } ->
          Printf.eprintf "%s\n"
            (Faults.Error.to_string (Faults.Error.Checkpoint_corrupt { path; line; reason }));
          exit 2)
    in
    Engine.Service.configure ~jobs ~cache:(not no_cache) ?checkpoint ?deadline_s:deadline ()
  in
  Term.(const setup $ jobs_arg $ no_cache_arg $ checkpoint_arg $ resume_arg $ deadline_arg)

(* One combined setup hook so subcommand signatures stay `run ()`. *)
let setup_term =
  Term.(const (fun () () () -> ()) $ telemetry_term $ provenance_term $ engine_term)

let fast_arg =
  let doc = "Fast mode: shorter captures and a single-pass calibration." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let find_standard_or_exit name =
  match Rfchain.Standards.find_opt name with
  | Some standard -> standard
  | None ->
    Printf.eprintf "unknown standard %s\nknown standards: %s\n" name
      (String.concat ", " Rfchain.Standards.names);
    exit 2

let context ~fast ~seed ~standard =
  let standard = find_standard_or_exit standard in
  Printf.printf "calibrating die %d for %s ...\n%!" seed standard.Rfchain.Standards.name;
  let ctx = Experiments.Context.create ~seed ~standard ~fast () in
  Printf.printf "calibrated: SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f dB (%d trials)\n\n%!"
    ctx.Experiments.Context.calibration.Calibration.Calibrate.snr_mod_db
    ctx.Experiments.Context.calibration.Calibration.Calibrate.snr_rx_db
    ctx.Experiments.Context.calibration.Calibration.Calibrate.sfdr_db
    ctx.Experiments.Context.calibration.Calibration.Calibrate.snr_measurements;
  ctx

let cmd_of name doc run =
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ setup_term $ fast_arg $ seed_arg $ standard_arg)

let fig7_9 () fast seed standard keys =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig7_fig9.print (Experiments.Fig7_fig9.run ~n_invalid:keys ctx)

let fig8 () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig8.print (Experiments.Fig8.run ctx)

let fig10 () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig10.print (Experiments.Fig10.run ctx)

let fig11 () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig11.print ctx (Experiments.Fig11.run ctx)

let fig12 () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig12.print ctx (Experiments.Fig12.run ctx)

let security () fast seed standard budget =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Security_table.print (Experiments.Security_table.run ~budget ctx)

let compare () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Compare_table.print (Experiments.Compare_table.run ctx)

let ablations () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Ablations.print ctx (Experiments.Ablations.run ctx)

let calibrate () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  List.iter print_endline ctx.Experiments.Context.calibration.Calibration.Calibrate.log;
  Format.printf "%a@." Rfchain.Config.pp ctx.Experiments.Context.golden

let lot () _fast seed standard =
  let standard_t = find_standard_or_exit standard in
  Printf.printf "calibrating an 8-die lot (seed base %d) ...\n%!" seed;
  Experiments.Lot_study.print (Experiments.Lot_study.run ~seed_base:seed standard_t)

let faults () seed standard dies json interrupt_after =
  (* The campaign layer is exception-free by construction: every
     failure mode comes back as data — degraded calibrations print and
     exit 0, a deadline returns a typed error (exit 3), and an
     interrupt yields a partial report marked incomplete (exit 130,
     like the signal). *)
  match Faults.Campaign.run_by_name ~dies ~seed ?interrupt_after standard with
  | Error (Faults.Error.Deadline_exceeded _ as e) ->
    Printf.eprintf "%s\n" (Faults.Error.to_string e);
    exit_with 3
  | Error e ->
    Printf.eprintf "%s\n" (Faults.Error.to_string e);
    exit_with 2
  | Ok campaign ->
    if json then Faults.Report.print_json campaign else Faults.Report.print campaign;
    if not (Faults.Campaign.complete campaign) then exit_with 130

let onchip () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Onchip_lock.print ctx (Experiments.Onchip_lock.run ctx)

let aging () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Aging_study.print (Experiments.Aging_study.run ctx)

let avalanche () fast seed standard =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Avalanche.print ctx (Experiments.Avalanche.run ctx)

let generality () _fast _seed _standard =
  Experiments.Generality.print (Experiments.Generality.run ())

(* A bounded, representative workload under forced telemetry: one fast
   calibration (exercises the rfchain/sigkit/calibration spans), one of
   each bench measurement, and a small brute-force attack against a
   re-fab die.  Useful as a quick profiling smoke test — it touches
   every instrumented layer in a few seconds. *)
let profile () _fast seed standard =
  Telemetry.Control.set_enabled true;
  let standard = find_standard_or_exit standard in
  Printf.printf "profiling a bounded workload (die %d, %s) ...\n%!" seed
    standard.Rfchain.Standards.name;
  Telemetry.Span.with_ ~name:"profile"
    ~attrs:[ ("seed", string_of_int seed); ("standard", standard.Rfchain.Standards.name) ]
    (fun () ->
      let ctx = Experiments.Context.create ~seed ~standard ~fast:true () in
      let bench = Metrics.Measure.create ctx.Experiments.Context.rx in
      let golden = ctx.Experiments.Context.golden in
      ignore (Metrics.Measure.snr_mod_db bench golden);
      ignore (Metrics.Measure.snr_rx_db bench golden);
      ignore (Metrics.Measure.sfdr_db bench golden);
      let key =
        Core.Key.make ~standard:ctx.Experiments.Context.standard ~chip:ctx.Experiments.Context.chip
          golden
      in
      let oracle =
        Attacks.Oracle.deploy ctx.Experiments.Context.standard ~chip_seed:seed ~key
      in
      let refab = Attacks.Oracle.refabricate ~trial_limit:200 oracle ~attacker_seed:777 in
      ignore
        (Telemetry.Span.with_ ~name:"attack.brute_force" (fun () ->
             Attacks.Brute_force.run ~budget:10 refab)));
  print_newline ();
  Telemetry.Export.summary_table ()

let all () fast seed standard keys budget =
  let ctx = context ~fast ~seed ~standard in
  Experiments.Fig7_fig9.print (Experiments.Fig7_fig9.run ~n_invalid:keys ctx);
  print_newline ();
  Experiments.Fig8.print (Experiments.Fig8.run ctx);
  print_newline ();
  Experiments.Fig10.print (Experiments.Fig10.run ctx);
  print_newline ();
  Experiments.Fig11.print ctx (Experiments.Fig11.run ctx);
  print_newline ();
  Experiments.Fig12.print ctx (Experiments.Fig12.run ctx);
  print_newline ();
  Experiments.Security_table.print (Experiments.Security_table.run ~budget ctx);
  print_newline ();
  Experiments.Compare_table.print (Experiments.Compare_table.run ctx);
  print_newline ();
  Experiments.Ablations.print ctx (Experiments.Ablations.run ctx);
  print_newline ();
  Experiments.Onchip_lock.print ctx (Experiments.Onchip_lock.run ctx);
  print_newline ();
  Experiments.Aging_study.print (Experiments.Aging_study.run ctx);
  print_newline ();
  Experiments.Lot_study.print (Experiments.Lot_study.run ~seed_base:6000 ctx.Experiments.Context.standard);
  print_newline ();
  Experiments.Avalanche.print ctx (Experiments.Avalanche.run ctx);
  print_newline ();
  Experiments.Generality.print (Experiments.Generality.run ())

let commands =
  [
    Cmd.v
      (Cmd.info "fig7" ~doc:"SNR per key at the modulator output (also prints Fig. 9 data)")
      Term.(const fig7_9 $ setup_term $ fast_arg $ seed_arg $ standard_arg $ keys_arg);
    Cmd.v
      (Cmd.info "fig9" ~doc:"SNR per key at the receiver output (same run as fig7)")
      Term.(const fig7_9 $ setup_term $ fast_arg $ seed_arg $ standard_arg $ keys_arg);
    cmd_of "fig8" "Transient modulator output, correct vs deceptive key" fig8;
    cmd_of "fig10" "PSD at the modulator output, correct vs deceptive key" fig10;
    cmd_of "fig11" "SNR vs input power over the VGLNA segments" fig11;
    cmd_of "fig12" "Two-tone SFDR, correct vs deceptive key" fig12;
    Cmd.v
      (Cmd.info "security" ~doc:"Attack-cost table and empirical attacks (Section VI-B)")
      Term.(const security $ setup_term $ fast_arg $ seed_arg $ standard_arg $ budget_arg);
    cmd_of "compare" "Comparison with prior locking techniques (Section II)" compare;
    cmd_of "ablations" "Design-choice ablations (slicing, process variation)" ablations;
    cmd_of "calibrate" "Run the 14-step calibration and print the secret key" calibrate;
    cmd_of "lot" "Monte-Carlo production-lot study (yield, key uniqueness, transfer)" lot;
    cmd_of "onchip" "On-chip self-calibration and calibration-loop locking [10]" onchip;
    cmd_of "aging" "Aging drift and recycled-part detection study" aging;
    (let dies_arg =
       let doc = "Number of dies in the stress lot." in
       Arg.(value & opt int 3 & info [ "dies" ] ~docv:"N" ~doc)
     in
     let json_arg =
       let doc = "Emit machine-readable JSON lines instead of ASCII tables." in
       Arg.(value & flag & info [ "json" ] ~doc)
     in
     let interrupt_after_arg =
       let doc =
         "Testing hook: inject a deterministic interrupt after exactly $(docv) evaluated \
          cells, as if SIGINT had arrived there."
       in
       Arg.(value & opt (some int) None & info [ "interrupt-after" ] ~docv:"N" ~doc)
     in
     Cmd.v
       (Cmd.info "faults"
          ~doc:"Fault-injection stress campaign: lock margins, bit-corruption cliff, degraded \
                calibration")
       Term.(
         const faults $ setup_term $ seed_arg $ standard_arg $ dies_arg $ json_arg
         $ interrupt_after_arg));
    cmd_of "avalanche" "SNR collapse vs key Hamming distance; per-bit key strength" avalanche;
    cmd_of "generality" "Second case study: fabric locking on a 24-bit baseband AFE" generality;
    cmd_of "profile"
      "Run a bounded representative workload with telemetry forced on; print the span table"
      profile;
    Cmd.v
      (Cmd.info "all" ~doc:"Every figure and table in sequence")
      Term.(const all $ setup_term $ fast_arg $ seed_arg $ standard_arg $ keys_arg $ budget_arg);
  ]

(* First ^C requests a cooperative stop: every simulator loop raises at
   its next poll, the campaign layers flush what they have (journalled
   work is already fsync'd) and print a partial report.  A second ^C
   gives up on cooperation and exits immediately. *)
let sigint_seen = ref false

let install_sigint () =
  match Sys.signal Sys.sigint
          (Sys.Signal_handle
             (fun _ ->
               if !sigint_seen then exit 130
               else begin
                 sigint_seen := true;
                 Telemetry.Cancel.interrupt ~reason:"SIGINT" ()
               end))
  with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no SIGINT on this platform *)

let () =
  install_sigint ();
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:"Reproduction of 'Securing Programmable Analog ICs Against Piracy' (DATE 2020)"
  in
  (* ~catch:false so a cancellation that no supervised layer converted
     to data surfaces here instead of as a cmdliner backtrace. *)
  try
    let status = Cmd.eval ~catch:false (Cmd.group info commands) in
    (* cmdliner reports parse errors with its cli_error status, 124 —
       the same value timeout(1) uses for a killed process, so a
       wrapped `repro nosuchcmd` reads as "timed out / never exited"
       (one such misreading is on record in ROADMAP).  Remap to 2,
       matching repro's own usage-error exits. *)
    exit_with (if status = Cmd.Exit.cli_error then 2 else status)
  with Telemetry.Cancel.Cancelled reason ->
    Printf.eprintf "\ninterrupted: %s\n" reason;
    exit_with (if reason = Telemetry.Cancel.deadline_reason then 3 else 130)
