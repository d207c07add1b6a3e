(* Integration tests: the experiment layer reproduces the paper's
   qualitative claims end to end (reduced ensemble sizes for speed; the
   full-size runs live in bin/repro and bench/main). *)

let ctx = lazy (Experiments.Context.create ~fast:true ())

let assert_checks name checks =
  List.iter
    (fun (label, ok) -> Alcotest.(check bool) (name ^ ": " ^ label) true ok)
    checks

let test_context_calibrates () =
  let c = Lazy.force ctx in
  Alcotest.(check bool) "calibration met spec" true
    (c.Experiments.Context.calibration.Calibration.Calibrate.snr_mod_db
    >= c.Experiments.Context.standard.Rfchain.Standards.min_snr_db)

let test_deceptive_example_shape () =
  let c = Lazy.force ctx in
  let d = Experiments.Context.deceptive_example c in
  Alcotest.(check bool) "open loop + buffer" true (Core.Lock_eval.is_open_loop_passthrough d);
  Alcotest.(check bool) "input enabled" true d.Rfchain.Config.gmin_enable

let test_ensemble_deterministic () =
  let c = Lazy.force ctx in
  let a = Experiments.Context.invalid_ensemble ~n:5 c in
  let b = Experiments.Context.invalid_ensemble ~n:5 c in
  List.iter2
    (fun x y -> Alcotest.(check bool) "same ensemble" true (Rfchain.Config.equal x y))
    a b

let test_fig7_fig9_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Fig7_fig9.run ~n_invalid:12 c in
  (* With a reduced ensemble only the correct-key claims and the margin
     are meaningful. *)
  let s = t.Experiments.Fig7_fig9.summary in
  Alcotest.(check bool) "correct above 40 dB" true (s.Core.Lock_eval.correct_snr_mod_db > 40.0);
  Alcotest.(check bool) "margin over best invalid" true (s.Core.Lock_eval.margin_mod_db > 5.0);
  Alcotest.(check int) "ensemble size" 12 (List.length t.Experiments.Fig7_fig9.eval.Core.Lock_eval.invalid)

let test_fig8 () =
  let c = Lazy.force ctx in
  assert_checks "fig8" (Experiments.Fig8.checks (Experiments.Fig8.run c))

let test_fig10 () =
  let c = Lazy.force ctx in
  assert_checks "fig10" (Experiments.Fig10.checks (Experiments.Fig10.run c))

let test_fig12_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Fig12.run ~powers:[ -25.0 ] c in
  Alcotest.(check int) "one point" 1 (List.length t.Experiments.Fig12.points);
  match t.Experiments.Fig12.points with
  | [ p ] ->
    Alcotest.(check bool) "correct above locked" true
      (p.Experiments.Fig12.sfdr_correct_db > p.Experiments.Fig12.sfdr_deceptive_db)
  | _ -> Alcotest.fail "unexpected point count"

let test_security_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Security_table.run ~budget:25 c in
  Alcotest.(check int) "five empirical attacks" 5 (List.length t.Experiments.Security_table.empirical);
  Alcotest.(check int) "unique binary-weighted code" 1 t.Experiments.Security_table.cap_unique_codes;
  Alcotest.(check bool) "unit-switched multiplicity" true
    (t.Experiments.Security_table.cap_unit_switched_codes > 1);
  Alcotest.(check int) "42 bits left after tap" 42 t.Experiments.Security_table.remaining_bits_after_tap

let test_compare_table () =
  let c = Lazy.force ctx in
  assert_checks "compare" (Experiments.Compare_table.checks (Experiments.Compare_table.run c))

let test_onchip_lock_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Onchip_lock.run ~n_wrong:2 c in
  assert_checks "onchip" (Experiments.Onchip_lock.checks c t)

let test_ablations () =
  let c = Lazy.force ctx in
  assert_checks "ablations" (Experiments.Ablations.checks c (Experiments.Ablations.run c))

let test_avalanche_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Avalanche.run ~distances:[ 8; 32 ] c in
  assert_checks "avalanche" (Experiments.Avalanche.checks c t)

let test_aging_reduced () =
  let c = Lazy.force ctx in
  let t = Experiments.Aging_study.run ~hours:[ 1e3; 1e5 ] c in
  assert_checks "aging" (Experiments.Aging_study.checks t)

let test_lot_reduced () =
  let t = Experiments.Lot_study.run ~lot:3 ~seed_base:6100 Rfchain.Standards.max_frequency in
  Alcotest.(check int) "three dice" 3 (List.length t.Experiments.Lot_study.dice);
  Alcotest.(check bool) "calibrated yield high" true
    (t.Experiments.Lot_study.calibrated_yield >= 0.6);
  Alcotest.(check bool) "keys differ" true (t.Experiments.Lot_study.min_pair_distance >= 3)

(* ------------------------------------------------------------ Ascii_plot *)

let test_ascii_plot_geometry () =
  let lines =
    Experiments.Ascii_plot.render ~width:40 ~height:10
      ~x_range:(0.0, 1.0) ~y_range:(0.0, 1.0)
      [
        { Experiments.Ascii_plot.x = 0.0; y = 0.0; marker = 'A' };
        { Experiments.Ascii_plot.x = 1.0; y = 1.0; marker = 'B' };
        { Experiments.Ascii_plot.x = 0.5; y = 0.5; marker = 'M' };
      ]
  in
  Alcotest.(check int) "height plus frame" 12 (List.length lines);
  let top = List.nth lines 0 and bottom = List.nth lines 9 in
  Alcotest.(check bool) "B in the top-right" true (String.contains top 'B');
  Alcotest.(check bool) "A in the bottom-left" true (String.contains bottom 'A');
  Alcotest.(check bool) "M in the middle row" true (String.contains (List.nth lines 5) 'M' || String.contains (List.nth lines 4) 'M')

let test_ascii_plot_clips () =
  let lines =
    Experiments.Ascii_plot.render ~width:20 ~height:5 ~x_range:(0.0, 1.0) ~y_range:(0.0, 1.0)
      [ { Experiments.Ascii_plot.x = 5.0; y = 5.0; marker = 'Z' } ]
  in
  Alcotest.(check bool) "out-of-range point dropped" false
    (List.exists (fun l -> String.contains l 'Z') lines)

let test_ascii_plot_series () =
  let pts = Experiments.Ascii_plot.series ~marker:'s' [ (0.0, 1.0); (1.0, 2.0) ] in
  Alcotest.(check int) "two points" 2 (List.length pts);
  Alcotest.(check bool) "marker applied" true
    (List.for_all (fun p -> p.Experiments.Ascii_plot.marker = 's') pts)

let () =
  Alcotest.run "experiments"
    [
      ( "context",
        [
          Alcotest.test_case "calibrates" `Slow test_context_calibrates;
          Alcotest.test_case "deceptive example" `Slow test_deceptive_example_shape;
          Alcotest.test_case "deterministic ensemble" `Slow test_ensemble_deterministic;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig7/fig9 reduced" `Slow test_fig7_fig9_reduced;
          Alcotest.test_case "fig8" `Slow test_fig8;
          Alcotest.test_case "fig10" `Slow test_fig10;
          Alcotest.test_case "fig12 reduced" `Slow test_fig12_reduced;
        ] );
      ( "ascii plot",
        [
          Alcotest.test_case "geometry" `Quick test_ascii_plot_geometry;
          Alcotest.test_case "clipping" `Quick test_ascii_plot_clips;
          Alcotest.test_case "series" `Quick test_ascii_plot_series;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "on-chip lock reduced" `Slow test_onchip_lock_reduced;
          Alcotest.test_case "aging reduced" `Slow test_aging_reduced;
          Alcotest.test_case "ablations" `Slow test_ablations;
          Alcotest.test_case "avalanche reduced" `Slow test_avalanche_reduced;
          Alcotest.test_case "lot reduced" `Slow test_lot_reduced;
        ] );
      ( "tables",
        [
          Alcotest.test_case "security reduced" `Slow test_security_reduced;
          Alcotest.test_case "comparison" `Slow test_compare_table;
        ] );
    ]
