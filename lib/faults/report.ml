(* Bit position -> owning field, per the documented Config layout. *)
let field_of_bit bit =
  if bit < 4 then "vglna_gain"
  else if bit < 12 then "cap_coarse"
  else if bit < 20 then "cap_fine"
  else if bit < 26 then "gm_q"
  else if bit < 32 then "gmin_bias"
  else if bit < 38 then "dac_bias"
  else if bit < 44 then "preamp_bias"
  else if bit < 50 then "comp_bias"
  else if bit < 54 then "loop_delay"
  else if bit < 56 then "dac_trim"
  else if bit = 56 then "fb_enable"
  else if bit = 57 then "comp_clock_enable"
  else if bit = 58 then "gmin_enable"
  else if bit = 59 then "cal_buffer_enable"
  else if bit < 62 then "out_buffer"
  else "preamp_trim"

let verdict_string outcome =
  match outcome.Calibration.Calibrate.verdict with
  | Calibration.Calibrate.Converged -> "converged"
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Tank_dead _) -> "degraded: tank dead"
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Spec_shortfall { shortfall_db; _ }) ->
    Printf.sprintf "degraded: %.1f dB below spec" shortfall_db

let db_or_dash x = if Float.is_finite x then Printf.sprintf "%7.1f" x else "      -"

let print (t : Campaign.t) =
  Printf.printf "# Fault-injection stress campaign — %s, seed %d, %d die(s)\n"
    t.Campaign.standard.Rfchain.Standards.name t.Campaign.seed t.Campaign.dies;
  (match t.Campaign.interrupted with
  | None -> ()
  | Some reason ->
    Printf.printf "!! INCOMPLETE — interrupted (%s) after %d evaluated cell(s); partial results below\n"
      reason t.Campaign.completed_cells);
  Printf.printf "healthy primary die, golden key: SNR(mod) %.1f dB (spec %.0f dB)\n\n"
    t.Campaign.golden_snr_mod_db t.Campaign.standard.Rfchain.Standards.min_snr_db;
  Printf.printf "## Lock margin of the valid key under injected faults\n";
  Printf.printf "%-18s %-9s %3s  %8s %8s %8s  %s\n" "mechanism" "severity" "n" "mean" "min"
    "max" "in-spec";
  List.iter
    (fun (s : Campaign.stat) ->
      Printf.printf "%-18s %-9s %3d  %s %s %s  %3.0f%%\n" s.Campaign.s_mechanism
        (Fault.severity_name s.Campaign.s_severity)
        s.Campaign.n
        (db_or_dash s.Campaign.mean_margin_db)
        (db_or_dash s.Campaign.min_margin_db)
        (db_or_dash s.Campaign.max_margin_db)
        (100.0 *. s.Campaign.survival_rate))
    t.Campaign.stats;
  let killed =
    List.length (List.filter (fun p -> not p.Campaign.survives_full) t.Campaign.flips)
  in
  Printf.printf "\n## Single-bit key corruption cliff (primary die, full spec check)\n";
  Printf.printf "%d/%d corrupted keys fail the specification\n" killed
    (List.length t.Campaign.flips);
  (match t.Campaign.unlocked_bits with
  | [] -> Printf.printf "no single-bit corruption survives the full check\n"
  | bits ->
    Printf.printf "surviving bit(s):%s\n"
      (String.concat ""
         (List.map (fun b -> Printf.sprintf " %d(%s)" b (field_of_bit b)) bits)));
  Printf.printf "\n## Calibration under defeating faults\n";
  List.iter
    (fun (d : Campaign.demo) ->
      Printf.printf "%-38s %-45s -> %s (%d attempt(s))\n" d.Campaign.label
        (Fault.describe d.Campaign.demo_fault)
        (verdict_string d.Campaign.outcome)
        d.Campaign.outcome.Calibration.Calibrate.attempts)
    t.Campaign.demos;
  Printf.printf "\n";
  (* The pass/fail assertions only mean something over a full run; a
     partial report would fail them vacuously. *)
  if Campaign.complete t then
    List.iter
      (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name)
      (Campaign.checks t)
  else Printf.printf "  (checks skipped: campaign incomplete)\n"

module Json = Telemetry.Json

let json_lines (t : Campaign.t) =
  let header =
    Json.Obj
      [
        ("type", Json.String "campaign");
        ("standard", Json.String t.Campaign.standard.Rfchain.Standards.name);
        ("seed", Json.int t.Campaign.seed);
        ("dies", Json.int t.Campaign.dies);
        ("golden_snr_mod_db", Json.float t.Campaign.golden_snr_mod_db);
        ("complete", Json.Bool (Campaign.complete t));
        ( "interrupted",
          match t.Campaign.interrupted with
          | None -> Json.Null
          | Some reason -> Json.String reason );
        ("completed_cells", Json.int t.Campaign.completed_cells);
      ]
  in
  let cell (c : Campaign.cell) =
    Json.Obj
      [
        ("type", Json.String "cell");
        ("mechanism", Json.String c.Campaign.mechanism);
        ("severity", Json.String (Fault.severity_name c.Campaign.severity));
        ("die_seed", Json.int c.Campaign.die_seed);
        ("faults", Json.List (List.map (fun f -> Json.String (Fault.describe f)) c.Campaign.faults));
        ("snr_mod_db", Json.float c.Campaign.snr_mod_db);
        ("lock_margin_db", Json.float c.Campaign.lock_margin_db);
        ("in_spec", Json.Bool c.Campaign.in_spec);
      ]
  in
  let flip (p : Campaign.flip_probe) =
    Json.Obj
      [
        ("type", Json.String "flip");
        ("bit", Json.int p.Campaign.bit);
        ("field", Json.String (field_of_bit p.Campaign.bit));
        ("snr_mod_db", Json.float p.Campaign.flip_snr_mod_db);
        ("survives_full", Json.Bool p.Campaign.survives_full);
      ]
  in
  let demo (d : Campaign.demo) =
    let report = d.Campaign.outcome.Calibration.Calibrate.report in
    Json.Obj
      [
        ("type", Json.String "demo");
        ("label", Json.String d.Campaign.label);
        ("fault", Json.String (Fault.describe d.Campaign.demo_fault));
        ("verdict", Json.String (verdict_string d.Campaign.outcome));
        ("attempts", Json.int d.Campaign.outcome.Calibration.Calibrate.attempts);
        ("snr_mod_db", Json.float report.Calibration.Calibrate.snr_mod_db);
      ]
  in
  let check (name, ok) =
    Json.Obj
      [ ("type", Json.String "check"); ("name", Json.String name); ("pass", Json.Bool ok) ]
  in
  let checks = if Campaign.complete t then Campaign.checks t else [] in
  List.map Json.to_string
    ((header :: List.map cell t.Campaign.cells)
    @ List.map flip t.Campaign.flips
    @ List.map demo t.Campaign.demos
    @ List.map check checks)

let print_json t = List.iter print_endline (json_lines t)
