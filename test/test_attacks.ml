(* Tests for the attack implementations and cost model. *)

let std = Rfchain.Standards.max_frequency

(* Full calibration (including the SFDR term): the oracle must be a
   genuinely in-spec production part. *)
let deployed_oracle =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some oracle -> oracle
    | None ->
      let chip = Circuit.Process.fabricate ~seed:42 () in
      let rx = Rfchain.Receiver.create chip std in
      let report = (Calibration.Calibrate.run ~passes:1 rx).Calibration.Calibrate.report in
      let key = Core.Key.make ~standard:std ~chip report.Calibration.Calibrate.key in
      let oracle = Attacks.Oracle.deploy std ~chip_seed:42 ~key in
      cache := Some oracle;
      oracle

(* --------------------------------------------------------------- Oracle *)

let test_oracle_reference () =
  let oracle = deployed_oracle () in
  let perf = Attacks.Oracle.reference_performance oracle in
  Alcotest.(check bool) "oracle performs in spec" true (Metrics.Spec.functional std perf)

let test_refab_counts_trials () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:7 in
  Alcotest.(check int) "starts at zero" 0 (Attacks.Oracle.trials_spent refab);
  let _ = Attacks.Oracle.try_key_fast refab Rfchain.Config.nominal in
  Alcotest.(check int) "fast probe is one trial" 1 (Attacks.Oracle.trials_spent refab);
  let _ = Attacks.Oracle.try_key refab Rfchain.Config.nominal in
  Alcotest.(check bool) "full measurement counted" true (Attacks.Oracle.trials_spent refab >= 3)

let test_trial_watchdog () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate ~trial_limit:5 oracle ~attacker_seed:8 in
  let r = Attacks.Brute_force.run ~budget:1000 refab in
  Alcotest.(check bool)
    (Printf.sprintf "brute force stopped by watchdog (spent %d)" (Attacks.Oracle.trials_spent refab))
    true
    (Attacks.Oracle.trials_spent refab <= 7 && r.Attacks.Brute_force.trials < 1000);
  (match Attacks.Oracle.try_key_fast refab Rfchain.Config.nominal with
  | Error (Attacks.Oracle.Budget_exhausted { limit; _ }) ->
    Alcotest.(check int) "reports the armed limit" 5 limit
  | Ok _ -> Alcotest.fail "watchdog did not trip");
  let sa =
    Attacks.Optimize.simulated_annealing ~budget:1000
      (Attacks.Oracle.refabricate ~trial_limit:5 oracle ~attacker_seed:9)
  in
  Alcotest.(check bool) "SA reports the oracle watchdog" true
    (sa.Attacks.Optimize.termination = Attacks.Optimize.Oracle_exhausted)

(* ----------------------------------------------------------------- Cost *)

let test_cost_table () =
  let rows = Attacks.Cost.brute_force_table () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "astronomical cost" true
        (r.Attacks.Cost.total_seconds > 3.15e7 *. 1e6) (* over a million years *))
    rows

let test_cost_humanization () =
  Alcotest.(check string) "seconds" "30.0 s" (Attacks.Cost.seconds_to_human 30.0);
  Alcotest.(check string) "minutes" "20.0 min" (Attacks.Cost.seconds_to_human 1200.0);
  Alcotest.(check string) "hours" "3.0 h" (Attacks.Cost.seconds_to_human 10800.0);
  Alcotest.(check bool) "years rendered in scientific form" true
    (String.length (Attacks.Cost.seconds_to_human 1e18) > 0)

let test_cost_paper_constants () =
  Alcotest.(check (float 1e-9)) "20 min SNR trial" 1200.0 Attacks.Cost.snr_trial_seconds;
  Alcotest.(check (float 1e-9)) "3 h DR trial" 10800.0 Attacks.Cost.dr_sweep_trial_seconds;
  Alcotest.(check (float 1e-9)) "30 min SFDR trial" 1800.0 Attacks.Cost.sfdr_trial_seconds;
  Alcotest.(check (float 1e3)) "2^63 expected trials" (2.0 ** 63.0)
    Attacks.Cost.expected_brute_force_trials

(* ---------------------------------------------------------- Brute force *)

let test_brute_force_budget () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:11 in
  let result = Attacks.Brute_force.run ~budget:30 refab in
  Alcotest.(check bool) "stops at the budget" true (result.Attacks.Brute_force.trials <= 30);
  Alcotest.(check bool) "30 random keys do not unlock" false result.Attacks.Brute_force.success;
  Alcotest.(check bool) "records the best attempt" true
    (Float.is_finite result.Attacks.Brute_force.best_snr_mod_db);
  Alcotest.(check (float 1.0)) "projected sim time"
    (float_of_int result.Attacks.Brute_force.trials *. 1200.0)
    result.Attacks.Brute_force.projected_seconds_sim

let test_brute_force_deterministic () =
  let oracle = deployed_oracle () in
  let r1 = Attacks.Brute_force.run ~seed:5 ~budget:10 (Attacks.Oracle.refabricate oracle ~attacker_seed:3) in
  let r2 = Attacks.Brute_force.run ~seed:5 ~budget:10 (Attacks.Oracle.refabricate oracle ~attacker_seed:3) in
  Alcotest.(check (float 1e-9)) "reproducible" r1.Attacks.Brute_force.best_snr_mod_db
    r2.Attacks.Brute_force.best_snr_mod_db

(* ----------------------------------------------------------- Optimisers *)

let test_sa_budget_and_trace () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:13 in
  let r = Attacks.Optimize.simulated_annealing ~budget:40 refab in
  Alcotest.(check bool) "respects budget" true (r.Attacks.Optimize.evaluations <= 40);
  Alcotest.(check bool) "no success within tiny budget" false r.Attacks.Optimize.success;
  (* The recorded trace must be monotonically improving. *)
  let rec monotone : Attacks.Optimize.trace_point list -> bool = function
    | a :: (b :: _ as rest) ->
      a.Attacks.Optimize.best_snr_mod_db <= b.Attacks.Optimize.best_snr_mod_db && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "trace improves monotonically" true (monotone r.Attacks.Optimize.trace)

let test_ga_budget () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:17 in
  let r = Attacks.Optimize.genetic ~budget:40 refab in
  Alcotest.(check bool) "respects budget" true (r.Attacks.Optimize.evaluations <= 40);
  Alcotest.(check bool) "no success within tiny budget" false r.Attacks.Optimize.success

let test_hill_climb_from_golden_succeeds () =
  (* Seeding the search with a stolen key from another die is the paper's
     "good starting point" scenario: on the attacker's die it should make
     real progress (and usually converge), unlike blind search. *)
  let oracle = deployed_oracle () in
  let chip_a = Circuit.Process.fabricate ~seed:4242 () in
  let rx_a = Rfchain.Receiver.create chip_a std in
  let stolen = Calibration.Calibrate.quick rx_a in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:4343 in
  let blind = Attacks.Optimize.simulated_annealing ~budget:300 (Attacks.Oracle.refabricate oracle ~attacker_seed:4343) in
  let seeded = Attacks.Optimize.hill_climb_from ~start:stolen ~budget:300 refab in
  Alcotest.(check bool)
    (Printf.sprintf "seeded (%.1f dB) beats blind (%.1f dB)" seeded.Attacks.Optimize.best_snr_mod_db
       blind.Attacks.Optimize.best_snr_mod_db)
    true
    (seeded.Attacks.Optimize.best_snr_mod_db > blind.Attacks.Optimize.best_snr_mod_db)

(* ------------------------------------------------------------- Subblock *)

let test_remaining_key_space () =
  Alcotest.(check int) "caps + gm_q recovered leaves 42 bits" 42
    (Attacks.Subblock.remaining_key_space_bits ~recovered:[ "cap_coarse"; "cap_fine"; "gm_q" ]);
  Alcotest.(check int) "nothing recovered leaves 64" 64
    (Attacks.Subblock.remaining_key_space_bits ~recovered:[])

let test_cap_only_attack_fails () =
  let oracle = deployed_oracle () in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:23 in
  let r = Attacks.Subblock.cap_only_attack ~budget:60 refab in
  Alcotest.(check bool) "conditioning failure blocks the sub-attack" false r.Attacks.Subblock.success

(* Success is judged against the attacked standard, not bluetooth's
   35 dB: the same search that clears 35 dB misses a raised bar. *)
let test_tapped_attack_uses_standard () =
  let raised = { Rfchain.Standards.bluetooth with min_snr_db = 60.0 } in
  let r = Attacks.Subblock.tapped_attack ~budget:100 raised ~attacker_seed:781 in
  let best = r.Attacks.Subblock.best_snr_mod_db in
  Alcotest.(check bool) (Printf.sprintf "best SNR between 35 and 60 dB (got %.1f)" best) true
    (best > 35.0 && best < 60.0);
  Alcotest.(check bool) "misses the raised spec" false r.Attacks.Subblock.success

let () =
  Alcotest.run "attacks"
    [
      ( "oracle",
        [
          Alcotest.test_case "reference performance" `Slow test_oracle_reference;
          Alcotest.test_case "trial accounting" `Quick test_refab_counts_trials;
          Alcotest.test_case "trial watchdog" `Slow test_trial_watchdog;
        ] );
      ( "cost",
        [
          Alcotest.test_case "table" `Quick test_cost_table;
          Alcotest.test_case "humanization" `Quick test_cost_humanization;
          Alcotest.test_case "paper constants" `Quick test_cost_paper_constants;
        ] );
      ( "brute force",
        [
          Alcotest.test_case "budget" `Slow test_brute_force_budget;
          Alcotest.test_case "deterministic" `Slow test_brute_force_deterministic;
        ] );
      ( "optimisers",
        [
          Alcotest.test_case "SA budget and trace" `Slow test_sa_budget_and_trace;
          Alcotest.test_case "GA budget" `Slow test_ga_budget;
          Alcotest.test_case "seeded hill climb" `Slow test_hill_climb_from_golden_succeeds;
        ] );
      ( "subblock",
        [
          Alcotest.test_case "remaining key space" `Quick test_remaining_key_space;
          Alcotest.test_case "cap-only fails" `Slow test_cap_only_attack_fails;
          Alcotest.test_case "tapped success uses the standard" `Slow test_tapped_attack_uses_standard;
        ] );
    ]
