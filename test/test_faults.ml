(* Tests for the fault-injection subsystem: fault composition,
   determinism, lock-margin behaviour under drift, and the resilient
   calibration's structured degraded reports. *)

let std = Rfchain.Standards.bluetooth

(* One healthy provisioned die, shared across tests. *)
let fixture =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some f -> f
    | None ->
      let chip = Circuit.Process.fabricate ~seed:42 () in
      let rx = Rfchain.Receiver.create chip std in
      let key = Calibration.Calibrate.quick rx in
      cache := Some (chip, rx, key);
      (chip, rx, key)

(* ----------------------------------------------------------- Composition *)

let test_stuck_overrides_flip () =
  (* With a certain flip on every bit, a stuck-at must still win. *)
  let faults =
    [
      Faults.Fault.Register_flip { rate = 1.0; seed = 11 };
      Faults.Fault.stuck_bit ~bit:0 ~value:false;
    ]
  in
  match Faults.Inject.fabric_of faults with
  | None -> Alcotest.fail "fabric faults produced no rewrite"
  | Some rewrite ->
    let bits = Rfchain.Config.to_bits (rewrite Rfchain.Config.nominal) in
    let nominal = Rfchain.Config.to_bits Rfchain.Config.nominal in
    Alcotest.(check int64) "stuck bit reads 0 through the upset" 0L (Int64.logand bits 1L);
    Alcotest.(check bool) "the upset really rewrote the word" true
      (not (Int64.equal (Int64.logor bits 1L) (Int64.logor nominal 1L)))

let test_out_of_range_stuck_is_noop () =
  match Faults.Inject.fabric_of [ Faults.Fault.stuck_bit ~bit:200 ~value:true ] with
  | None -> Alcotest.fail "no-op fault should still install an identity rewrite"
  | Some rewrite ->
    Alcotest.(check bool) "word unchanged" true
      (Rfchain.Config.equal (rewrite Rfchain.Config.nominal) Rfchain.Config.nominal)

let test_stuck_field_masks_whole_field () =
  match Faults.Fault.stuck_field ~name:"gm_q" ~code:0 with
  | Faults.Fault.Stuck_bits { mask; value } ->
    Alcotest.(check int) "gm_q is six bits" (Rfchain.Config.field_width "gm_q")
      (Faults.Fault.popcount64 mask);
    Alcotest.(check int64) "stuck at zero" 0L value
  | _ -> Alcotest.fail "stuck_field must build Stuck_bits"

let test_chip_faults_pass_through_fabric () =
  Alcotest.(check bool) "chip-level faults install no fabric rewrite" true
    (Faults.Inject.fabric_of
       [ Faults.Fault.pvt Faults.Fault.Mild; Faults.Fault.aging Faults.Fault.Mild ]
    = None)

(* A hand-built aging fault of infinite or nan hours is refused where
   the die is aged, before any calibration could see a nan tank. *)
let test_non_finite_aging_refused () =
  let chip = Circuit.Process.fabricate ~seed:42 () in
  List.iter
    (fun hours ->
      Alcotest.check_raises
        (Printf.sprintf "aging of %g hours" hours)
        (Invalid_argument "Process.age: non-finite hours")
        (fun () -> ignore (Faults.Inject.receiver chip std [ Faults.Fault.Aging { hours } ])))
    [ infinity; nan ]

(* ----------------------------------------------------------- Determinism *)

let test_deterministic_rewrites () =
  let faults = [ Faults.Fault.register_upsets ~seed:3 Faults.Fault.Moderate ] in
  match Faults.Inject.fabric_of faults with
  | None -> Alcotest.fail "register upsets produced no rewrite"
  | Some rewrite ->
    let a = Rfchain.Config.to_bits (rewrite Rfchain.Config.nominal) in
    let b = Rfchain.Config.to_bits (rewrite Rfchain.Config.nominal) in
    Alcotest.(check int64) "same seed, same upsets, every load" a b

let test_deterministic_bursts () =
  let faults = [ Faults.Fault.burst_noise ~seed:5 Faults.Fault.Severe ] in
  match Faults.Inject.rf_of faults with
  | None -> Alcotest.fail "burst noise produced no RF corruption"
  | Some corrupt ->
    let x = Array.init 512 (fun i -> sin (0.01 *. float_of_int i)) in
    let a = corrupt (Array.copy x) in
    let b = corrupt (Array.copy x) in
    Alcotest.(check bool) "same seed, same bursts" true (a = b);
    Alcotest.(check bool) "bursts actually hit" true (a <> x)

(* ---------------------------------------------------------- Lock margins *)

let test_valid_key_survives_mild_drift () =
  let chip, _, key = fixture () in
  let rx_faulted =
    Faults.Inject.receiver chip std
      [ Faults.Fault.pvt Faults.Fault.Mild; Faults.Fault.aging Faults.Fault.Mild ]
  in
  let snr = Metrics.Measure.snr_mod_db (Metrics.Measure.create rx_faulted) key in
  Alcotest.(check bool)
    (Printf.sprintf "golden key in spec under mild drift (%.1f dB)" snr)
    true
    (snr >= std.Rfchain.Standards.min_snr_db)

let test_corrupted_key_fails () =
  let _, rx, key = fixture () in
  (* Flip the comparator-clock bit: one wrong bit, dead receiver. *)
  let corrupted = Rfchain.Config.of_bits (Int64.logxor (Rfchain.Config.to_bits key) (Int64.shift_left 1L 57)) in
  let snr = Metrics.Measure.snr_mod_db (Metrics.Measure.create rx) corrupted in
  Alcotest.(check bool)
    (Printf.sprintf "1-bit-corrupted key out of spec (%.1f dB)" snr)
    true
    (snr < std.Rfchain.Standards.min_snr_db)

(* ---------------------------------------------- Degraded calibration paths *)

let test_tank_dead_report () =
  let chip, _, _ = fixture () in
  let rx = Faults.Inject.receiver chip std [ Faults.Fault.stuck_field ~name:"gm_q" ~code:0 ] in
  (match Calibration.Osc_tune.run rx with
  | Error (Calibration.Osc_tune.Tank_silent _) -> ()
  | Ok _ -> Alcotest.fail "a dead Q-enhancement driver must silence the tank");
  let outcome = Calibration.Calibrate.run ~passes:1 ~refine_sfdr:false ~max_retries:2 rx in
  (match outcome.Calibration.Calibrate.verdict with
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Tank_dead { measurements; _ }) ->
    Alcotest.(check bool) "counted its measurements" true (measurements > 0)
  | _ -> Alcotest.fail "expected a structured Tank_dead verdict");
  Alcotest.(check int) "a dead tank is not retried" 1 outcome.Calibration.Calibrate.attempts;
  Alcotest.(check bool) "degraded report carries -inf metrics" true
    (outcome.Calibration.Calibrate.report.Calibration.Calibrate.snr_mod_db = neg_infinity)

let test_spec_shortfall_report () =
  let chip, _, _ = fixture () in
  let rx =
    Faults.Inject.receiver chip std
      [ Faults.Fault.stuck_field ~name:"comp_clock_enable" ~code:0 ]
  in
  let outcome = Calibration.Calibrate.run ~passes:1 ~refine_sfdr:false ~max_retries:1 rx in
  (match outcome.Calibration.Calibrate.verdict with
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Spec_shortfall { shortfall_db; _ }) ->
    Alcotest.(check bool) "positive shortfall" true (shortfall_db > 0.0)
  | _ -> Alcotest.fail "expected a structured Spec_shortfall verdict");
  Alcotest.(check int) "escalated retry was attempted" 2 outcome.Calibration.Calibrate.attempts

(* -------------------------------------------------------------- Campaign *)

let test_campaign_end_to_end () =
  match Faults.Campaign.run ~dies:1 ~seed:42 std with
  | Error e -> Alcotest.fail (Faults.Error.to_string e)
  | Ok t ->
    Alcotest.(check int) "full single-bit cliff" Rfchain.Config.key_bits
      (List.length t.Faults.Campaign.flips);
    Alcotest.(check int) "one cell per mechanism x severity"
      (List.length Faults.Campaign.mechanism_names * 3)
      (List.length t.Faults.Campaign.cells);
    List.iter
      (fun (name, ok) -> Alcotest.(check bool) name true ok)
      (Faults.Campaign.checks t);
    Alcotest.(check bool) "JSON output is one object per line" true
      (List.for_all
         (fun line -> String.length line > 2 && line.[0] = '{')
         (Faults.Report.json_lines t))

let test_empty_sweep_is_an_error () =
  match Faults.Campaign.run ~dies:0 ~seed:42 std with
  | Error (Faults.Error.Empty_sweep _) -> ()
  | Error _ -> Alcotest.fail "wrong error for an empty sweep"
  | Ok _ -> Alcotest.fail "a zero-die campaign must be refused"

(* The engine's deadline is the campaign's: on an engine whose deadline
   has already passed, the lot calibration's first poll stops the run
   and it returns the typed error with the engine's seconds, at one
   lane and on the pool. *)
let test_expired_engine_deadline () =
  List.iter
    (fun jobs ->
      let engine = Engine.Service.create ~jobs ~deadline_s:0.0 () in
      Fun.protect ~finally:(fun () -> Engine.Service.shutdown engine) @@ fun () ->
      match Faults.Campaign.run ~dies:1 ~seed:42 ~engine std with
      | Error (Faults.Error.Deadline_exceeded { deadline_s; completed; total }) ->
        Alcotest.(check (float 0.0)) "engine's seconds" 0.0 deadline_s;
        Alcotest.(check int) "no cell completed" 0 completed;
        Alcotest.(check int) "no cell planned" 0 total
      | Error e -> Alcotest.fail ("wrong error: " ^ Faults.Error.to_string e)
      | Ok _ -> Alcotest.fail "an expired deadline must stop the campaign")
    [ 1; 2 ]

(* --------------------------------------------------- Errors and standards *)

let test_find_opt () =
  (match Rfchain.Standards.find_opt "bluetooth" with
  | Some s -> Alcotest.(check string) "finds bluetooth" "bluetooth" s.Rfchain.Standards.name
  | None -> Alcotest.fail "bluetooth must be a known standard");
  Alcotest.(check bool) "unknown standard is None" true
    (Rfchain.Standards.find_opt "fm-radio" = None);
  Alcotest.(check bool) "names lists bluetooth" true
    (List.mem "bluetooth" Rfchain.Standards.names)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_error_to_string () =
  let msg =
    Faults.Error.to_string
      (Faults.Error.Unknown_standard { requested = "fm-radio"; known = [ "bluetooth" ] })
  in
  Alcotest.(check bool) "names the request" true (contains ~sub:"fm-radio" msg);
  Alcotest.(check bool) "lists the known standards" true (contains ~sub:"bluetooth" msg)

let test_error_examples_render () =
  (* One example per constructor: a new variant must render a message
     of its own. *)
  let msgs = List.map Faults.Error.to_string Faults.Error.all_examples in
  Alcotest.(check int) "every variant renders a distinct message"
    (List.length msgs)
    (List.length (List.sort_uniq compare msgs));
  Alcotest.(check bool) "no empty rendering" true
    (List.for_all (fun m -> String.length m > 0) msgs)

(* ---------------------------------------------------------------- Resume *)

let prop_resume_determinism =
  let ok_cp = function
    | Ok cp -> cp
    | Error c -> QCheck.Test.fail_report (Engine.Checkpoint.corruption_to_string c)
  in
  QCheck.Test.make
    ~name:"interrupt at cell k then resume = uninterrupted run, byte for byte" ~count:2
    QCheck.(pair (int_range 1 50) (int_range 42 43))
    (fun (k, seed) ->
      let fresh =
        match Faults.Campaign.run ~dies:1 ~seed std with
        | Ok t -> Faults.Report.json_lines t
        | Error e -> QCheck.Test.fail_report (Faults.Error.to_string e)
      in
      let path = Filename.temp_file "campaign" ".jsonl" in
      (* Run 1: journal to a fresh checkpoint, die after k cells. *)
      let cp = ok_cp (Engine.Checkpoint.load ~resume:false path) in
      let engine = Engine.Service.create ~jobs:1 ~checkpoint:cp () in
      (match Faults.Campaign.run ~dies:1 ~seed ~engine ~interrupt_after:k std with
      | Ok t ->
        if Faults.Campaign.complete t then
          QCheck.Test.fail_report "interrupt_after did not interrupt";
        if t.Faults.Campaign.completed_cells <> k then
          QCheck.Test.fail_reportf "stopped after %d cells, wanted %d"
            t.Faults.Campaign.completed_cells k
      | Error e ->
        QCheck.Test.fail_report ("interrupted run errored: " ^ Faults.Error.to_string e));
      Engine.Checkpoint.close cp;
      Engine.Service.shutdown engine;
      (* Run 2: cold cache, resume the journal, run to completion. *)
      let cp = ok_cp (Engine.Checkpoint.load ~resume:true path) in
      let engine = Engine.Service.create ~jobs:1 ~checkpoint:cp () in
      let resumed =
        match Faults.Campaign.run ~dies:1 ~seed ~engine std with
        | Ok t -> Faults.Report.json_lines t
        | Error e ->
          QCheck.Test.fail_report ("resumed run errored: " ^ Faults.Error.to_string e)
      in
      Engine.Checkpoint.close cp;
      Engine.Service.shutdown engine;
      Sys.remove path;
      fresh = resumed)

(* Same contract under the streaming scheduler with worker lanes: the
   interrupted leg runs on a jobs-4 engine, so the whole cell grid is
   in flight when the interrupt fires mid-stream, and the report must
   still cut at exactly k delivered cells and resume byte-identically
   (workers may journal a few cells beyond k — resume replays them,
   the bytes cannot tell). *)
let prop_resume_determinism_jobs4 =
  let ok_cp = function
    | Ok cp -> cp
    | Error c -> QCheck.Test.fail_report (Engine.Checkpoint.corruption_to_string c)
  in
  QCheck.Test.make
    ~name:"interrupt mid-stream under jobs 4 then resume = uninterrupted, byte for byte"
    ~count:1
    QCheck.(pair (int_range 1 50) (int_range 42 43))
    (fun (k, seed) ->
      let fresh =
        match Faults.Campaign.run ~dies:1 ~seed std with
        | Ok t -> Faults.Report.json_lines t
        | Error e -> QCheck.Test.fail_report (Faults.Error.to_string e)
      in
      let path = Filename.temp_file "campaign" ".jsonl" in
      let cp = ok_cp (Engine.Checkpoint.load ~resume:false path) in
      let engine = Engine.Service.create ~jobs:4 ~checkpoint:cp () in
      (match Faults.Campaign.run ~dies:1 ~seed ~engine ~interrupt_after:k std with
      | Ok t ->
        if Faults.Campaign.complete t then
          QCheck.Test.fail_report "interrupt_after did not interrupt";
        if t.Faults.Campaign.completed_cells <> k then
          QCheck.Test.fail_reportf "stopped after %d cells, wanted %d"
            t.Faults.Campaign.completed_cells k
      | Error e ->
        QCheck.Test.fail_report ("interrupted run errored: " ^ Faults.Error.to_string e));
      Engine.Checkpoint.close cp;
      Engine.Service.shutdown engine;
      let cp = ok_cp (Engine.Checkpoint.load ~resume:true path) in
      let engine = Engine.Service.create ~jobs:4 ~checkpoint:cp () in
      let resumed =
        match Faults.Campaign.run ~dies:1 ~seed ~engine std with
        | Ok t -> Faults.Report.json_lines t
        | Error e ->
          QCheck.Test.fail_report ("resumed run errored: " ^ Faults.Error.to_string e)
      in
      Engine.Checkpoint.close cp;
      Engine.Service.shutdown engine;
      Sys.remove path;
      fresh = resumed)

(* ------------------------------------------------------------------ JSON *)

let test_json_rendering () =
  (* The campaign JSONL's encoding: compact, "%.6g" floats, non-finite
     floats as null. *)
  let open Telemetry.Json in
  Alcotest.(check string) "escaping" "{\"a\\\"b\":\"x\\ny\"}"
    (to_string (Obj [ ("a\"b", String "x\ny") ]));
  Alcotest.(check string) "non-finite floats are null" "[null,null,1.5]"
    (to_string (List [ float nan; float neg_infinity; float 1.5 ]));
  Alcotest.(check string) "scalars" "{\"n\":42,\"ok\":true,\"none\":null}"
    (to_string (Obj [ ("n", int 42); ("ok", Bool true); ("none", Null) ]));
  Alcotest.(check string) "%.6g floats and control bytes"
    "[1e-07,1.23457e+08,-0,-3,\"\\u0000\\u001f\127\255\"]"
    (to_string
       (List [ float 1e-7; float 123456789.0; float (-0.0); int (-3); String "\x00\x1f\x7f\xff" ]))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "composition",
        [
          Alcotest.test_case "stuck-at overrides register upset" `Quick test_stuck_overrides_flip;
          Alcotest.test_case "out-of-range stuck bit is a no-op" `Quick test_out_of_range_stuck_is_noop;
          Alcotest.test_case "stuck field covers the whole field" `Quick test_stuck_field_masks_whole_field;
          Alcotest.test_case "chip faults leave the fabric alone" `Quick test_chip_faults_pass_through_fabric;
          Alcotest.test_case "non-finite aging is refused" `Quick test_non_finite_aging_refused;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "register upsets replay exactly" `Quick test_deterministic_rewrites;
          Alcotest.test_case "bursts replay exactly" `Quick test_deterministic_bursts;
        ] );
      ( "lock margin",
        [
          Alcotest.test_case "valid key survives mild drift" `Slow test_valid_key_survives_mild_drift;
          Alcotest.test_case "1-bit-corrupted key fails" `Slow test_corrupted_key_fails;
        ] );
      ( "degraded calibration",
        [
          Alcotest.test_case "dead tank: structured report" `Slow test_tank_dead_report;
          Alcotest.test_case "spec shortfall: structured report" `Slow test_spec_shortfall_report;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "end to end, all checks pass" `Slow test_campaign_end_to_end;
          Alcotest.test_case "zero dies is a typed error" `Quick test_empty_sweep_is_an_error;
          Alcotest.test_case "expired engine deadline is a typed error" `Quick
            test_expired_engine_deadline;
        ] );
      ( "errors",
        [
          Alcotest.test_case "Standards.find_opt" `Quick test_find_opt;
          Alcotest.test_case "Error.to_string" `Quick test_error_to_string;
          Alcotest.test_case "variants render distinctly" `Quick test_error_examples_render;
          Alcotest.test_case "JSON rendering" `Quick test_json_rendering;
        ] );
      ("resume", qcheck [ prop_resume_determinism; prop_resume_determinism_jobs4 ]);
    ]
