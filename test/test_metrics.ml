(* Unit tests for the SNR/SFDR/dynamic-range metrology. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* Synthetic bandpass record: tone at fs/4 + offset plus white noise of
   a known level — the SNR estimator must recover the analytic ratio. *)
let synthetic_record ~fs ~n ~amplitude ~noise_sigma ~offset =
  let rng = Sigkit.Rng.create 31337 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:((fs /. 4.0) +. offset) ~fs ~n in
  let tone = Sigkit.Waveform.tone ~amplitude ~freq ~fs n in
  (freq, Array.map (fun v -> v +. (noise_sigma *. Sigkit.Rng.gaussian rng)) tone)

let test_snr_analytic () =
  let fs = 12e9 and n = 8192 and osr = 64 in
  let amplitude = 0.5 and noise_sigma = 0.01 in
  let freq, record = synthetic_record ~fs ~n ~amplitude ~noise_sigma ~offset:20e6 in
  let snr = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr record in
  (* Analytic: P_sig = A^2/2; in-band noise = sigma^2 / OSR. *)
  let expected =
    Sigkit.Decibel.db_of_power_ratio
      (amplitude ** 2.0 /. 2.0 /. (noise_sigma ** 2.0 /. float_of_int osr))
  in
  check_close ~eps:1.5 "bandpass SNR matches analytic" expected snr

let test_snr_scales_with_osr () =
  let fs = 12e9 and n = 8192 in
  let freq, record = synthetic_record ~fs ~n ~amplitude:0.5 ~noise_sigma:0.02 ~offset:10e6 in
  let snr32 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:32 record in
  let snr64 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:64 record in
  let snr128 = Metrics.Snr.of_bandpass ~fs ~f_signal:freq ~osr:128 record in
  (* Halving a white-noise band buys ~3 dB; the carrier-lobe exclusion
     inflates the narrow-band steps somewhat, so bound rather than pin. *)
  let step1 = snr64 -. snr32 and step2 = snr128 -. snr64 in
  Alcotest.(check bool)
    (Printf.sprintf "octave steps in [2, 6] dB (got %.2f, %.2f)" step1 step2)
    true
    (step1 > 2.0 && step1 < 6.0 && step2 > 2.0 && step2 < 6.0)

let test_snr_iq_analytic () =
  let fs = 187.5e6 and n = 2048 in
  let rng = Sigkit.Rng.create 7 in
  let sigma = 0.01 and amplitude = 0.3 in
  let f_off = Sigkit.Waveform.coherent_frequency ~freq:20e6 ~fs ~n in
  let w = 2.0 *. Float.pi *. f_off /. fs in
  let i_ch =
    Array.init n (fun k -> (amplitude *. cos (w *. float_of_int k)) +. (sigma *. Sigkit.Rng.gaussian rng))
  in
  let q_ch =
    Array.init n (fun k -> (amplitude *. sin (w *. float_of_int k)) +. (sigma *. Sigkit.Rng.gaussian rng))
  in
  let f_band = 46.875e6 in
  let snr = Metrics.Snr.of_baseband_iq ~n_fft:n ~fs ~f_signal:f_off ~f_band (i_ch, q_ch) in
  (* Complex tone power A^2; complex noise in +-f_band: 2 sigma^2 * (2 f_band / fs). *)
  let expected =
    Sigkit.Decibel.db_of_power_ratio
      (amplitude ** 2.0 /. (2.0 *. sigma ** 2.0 *. (2.0 *. f_band /. fs)))
  in
  check_close ~eps:1.5 "IQ SNR matches analytic" expected snr

let test_snr_rejects_short () =
  Alcotest.check_raises "short record" (Invalid_argument "Snr: record too short") (fun () ->
      ignore (Metrics.Snr.of_bandpass ~fs:1e9 ~f_signal:1e8 ~osr:64 (Array.make 16 0.0)))

let test_sfdr_known_spur () =
  let fs = 12e9 and n = 8192 in
  let f0 = 3e9 in
  let f1, f2 = Metrics.Sfdr.tones_for ~f0 ~fs ~n in
  check_close ~eps:3e6 "tone spacing" Metrics.Sfdr.tone_spacing_hz (f2 -. f1);
  (* Hand-build two tones plus one -40 dBc spur in band. *)
  let spur_freq = Sigkit.Waveform.coherent_frequency ~freq:(f0 +. 30e6) ~fs ~n in
  let a = 0.5 in
  let x =
    Sigkit.Waveform.add
      (Sigkit.Waveform.add
         (Sigkit.Waveform.tone ~amplitude:a ~freq:f1 ~fs n)
         (Sigkit.Waveform.tone ~amplitude:a ~freq:f2 ~fs n))
      (Sigkit.Waveform.tone ~amplitude:(a /. 100.0) ~freq:spur_freq ~fs n)
  in
  let sfdr = Metrics.Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr:64 x in
  check_close ~eps:1.0 "SFDR finds the -40 dBc spur" 40.0 sfdr

let test_dynamic_range_sweep () =
  (* A fake chip whose SNR rises 1 dB per dBm from -90 dBm. *)
  let measure ~p_dbm ~gain_code:_ = p_dbm +. 90.0 in
  let segs = Metrics.Dynamic_range.sweep ~measure in
  Alcotest.(check int) "three segments" 3 (List.length segs);
  let total_points = List.fold_left (fun acc s -> acc + List.length s.Metrics.Dynamic_range.points) 0 segs in
  Alcotest.(check int) "27 sweep points" 27 total_points;
  (* Passing region with threshold 25: p >= -65 up to 0 dBm -> 70 dB. *)
  check_close "dynamic range" 70.0 (Metrics.Dynamic_range.dynamic_range_db segs ~min_snr_db:25.0)

let test_dynamic_range_empty () =
  let measure ~p_dbm:_ ~gain_code:_ = -100.0 in
  let segs = Metrics.Dynamic_range.sweep ~measure in
  check_close "dead chip has no range" 0.0 (Metrics.Dynamic_range.dynamic_range_db segs ~min_snr_db:25.0)

let test_spec_check () =
  let std = Rfchain.Standards.max_frequency in
  let good = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = Some 40.0 } in
  let bad = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 20.0; sfdr_db = Some 40.0 } in
  Alcotest.(check bool) "good passes" true (Metrics.Spec.functional std good);
  Alcotest.(check bool) "bad rx fails" false (Metrics.Spec.functional std bad);
  Alcotest.(check bool) "bad mod fails" false
    (Metrics.Spec.functional std { good with Metrics.Spec.snr_mod_db = 10.0 });
  Alcotest.(check bool) "low SFDR fails" false
    (Metrics.Spec.functional std { good with Metrics.Spec.sfdr_db = Some 20.0 });
  check_close "distance zero when passing" 0.0 (Metrics.Spec.spec_distance std good);
  check_close "distance counts shortfall" (std.Rfchain.Standards.min_snr_db -. 20.0)
    (Metrics.Spec.spec_distance std bad)

let test_spec_optional_sfdr () =
  let std = Rfchain.Standards.max_frequency in
  let m = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = None } in
  Alcotest.(check bool) "missing SFDR is not a failure" true (Metrics.Spec.functional std m)

let test_spec_nan_fails () =
  let std = Rfchain.Standards.bluetooth in
  Alcotest.(check bool) "nan SNR misses" false (Metrics.Spec.snr_meets std nan);
  Alcotest.(check bool) "nan SFDR misses" false (Metrics.Spec.sfdr_meets std nan);
  Alcotest.(check bool) "SNR at the threshold meets" true
    (Metrics.Spec.snr_meets std std.Rfchain.Standards.min_snr_db);
  Alcotest.(check bool) "SFDR at the threshold meets" true
    (Metrics.Spec.sfdr_meets std std.Rfchain.Standards.min_sfdr_db);
  let good = { Metrics.Spec.snr_mod_db = 45.0; snr_rx_db = 44.0; sfdr_db = Some 40.0 } in
  List.iter
    (fun (what, m) ->
      Alcotest.(check bool) (what ^ " fails the verdict") false (Metrics.Spec.functional std m))
    [
      ("nan SNR(mod)", { good with Metrics.Spec.snr_mod_db = nan });
      ("nan SNR(rx)", { good with Metrics.Spec.snr_rx_db = nan });
      ("nan SFDR", { good with Metrics.Spec.sfdr_db = Some nan });
    ]

let test_measure_counts_trials () =
  let rx = Rfchain.Receiver.create (Circuit.Process.fabricate ~seed:9 ()) Rfchain.Standards.max_frequency in
  let bench = Metrics.Measure.create rx in
  Alcotest.(check int) "starts at zero" 0 (Metrics.Measure.trial_count bench);
  let _ = Metrics.Measure.snr_mod_db bench Rfchain.Config.nominal in
  Alcotest.(check int) "one trial" 1 (Metrics.Measure.trial_count bench);
  let _ = Metrics.Measure.sfdr_db bench Rfchain.Config.nominal in
  Alcotest.(check int) "two trials" 2 (Metrics.Measure.trial_count bench)

let test_measure_mod_output () =
  let rx = Rfchain.Receiver.create (Circuit.Process.fabricate ~seed:9 ()) Rfchain.Standards.max_frequency in
  let bench = Metrics.Measure.create rx in
  let record = Metrics.Measure.mod_output bench Rfchain.Config.nominal in
  Alcotest.(check int) "8192-point record" 8192 (Array.length record)

let prop_spec_distance_nonneg =
  QCheck.Test.make ~name:"spec distance is non-negative" ~count:200
    QCheck.(triple (float_range (-200.) 100.) (float_range (-200.) 100.) (float_range (-200.) 100.))
    (fun (a, b, c) ->
      let m = { Metrics.Spec.snr_mod_db = a; snr_rx_db = b; sfdr_db = Some c } in
      Metrics.Spec.spec_distance Rfchain.Standards.max_frequency m >= 0.0)

(* A performance value: mostly finite around the thresholds, with the
   non-finite values a dead or faulted die can report. *)
let performance_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float_range 0. 80.);
        (1, oneofl [ nan; infinity; neg_infinity ]);
        (1, map float_of_int (int_range 30 40));
      ])

(* The attacks count a key as a success when [spec_distance = 0.0]; this
   pins that test to the one verdict on every standard and every kind of
   value. *)
let prop_spec_functional_iff_zero =
  let gen =
    QCheck.Gen.(
      quad (oneofl Rfchain.Standards.all) performance_gen performance_gen
        (opt performance_gen))
  in
  let print (std, a, b, c) =
    Printf.sprintf "%s mod=%h rx=%h sfdr=%s" std.Rfchain.Standards.name a b
      (Option.fold ~none:"None" ~some:(Printf.sprintf "%h") c)
  in
  QCheck.Test.make ~name:"functional iff zero distance" ~count:1000
    (QCheck.make ~print gen)
    (fun (std, a, b, c) ->
      let m = { Metrics.Spec.snr_mod_db = a; snr_rx_db = b; sfdr_db = c } in
      Metrics.Spec.functional std m = (Metrics.Spec.spec_distance std m = 0.0))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "snr",
        [
          Alcotest.test_case "analytic bandpass" `Quick test_snr_analytic;
          Alcotest.test_case "OSR scaling" `Quick test_snr_scales_with_osr;
          Alcotest.test_case "analytic IQ" `Quick test_snr_iq_analytic;
          Alcotest.test_case "short record" `Quick test_snr_rejects_short;
        ] );
      ("sfdr", [ Alcotest.test_case "known spur" `Quick test_sfdr_known_spur ]);
      ( "dynamic range",
        [
          Alcotest.test_case "sweep" `Quick test_dynamic_range_sweep;
          Alcotest.test_case "dead chip" `Quick test_dynamic_range_empty;
        ] );
      ( "spec",
        [
          Alcotest.test_case "check" `Quick test_spec_check;
          Alcotest.test_case "optional SFDR" `Quick test_spec_optional_sfdr;
          Alcotest.test_case "nan fails its spec" `Quick test_spec_nan_fails;
        ] );
      ( "measure",
        [
          Alcotest.test_case "trial counting" `Quick test_measure_counts_trials;
          Alcotest.test_case "mod output" `Quick test_measure_mod_output;
        ] );
      ("properties", qcheck [ prop_spec_distance_nonneg; prop_spec_functional_iff_zero ]);
    ]
