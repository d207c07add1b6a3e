(* Tests for the second case study: the programmable baseband AFE. *)

let chip ?(seed = 9001) () = Circuit.Process.fabricate ~seed ()

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* --------------------------------------------------------------- Config *)

let test_config_roundtrip () =
  let c = Afe.Afe_config.nominal in
  Alcotest.(check bool) "roundtrip" true
    (Afe.Afe_config.equal c (Afe.Afe_config.of_bits (Afe.Afe_config.to_bits c)));
  Alcotest.(check int) "24 key bits" 24 Afe.Afe_config.key_bits;
  Alcotest.(check bool) "nominal valid" true (Result.is_ok (Afe.Afe_config.validate c))

let test_config_hamming () =
  let c = Afe.Afe_config.nominal in
  Alcotest.(check int) "self distance" 0 (Afe.Afe_config.hamming_distance c c);
  let c2 = { c with Afe.Afe_config.q_trim = c.Afe.Afe_config.q_trim lxor 1 } in
  Alcotest.(check int) "one bit" 1 (Afe.Afe_config.hamming_distance c c2)

(* ---------------------------------------------------------------- Chain *)

let test_cutoff_monotone_in_caps () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let cutoff coarse = Afe.Afe_chain.cutoff_hz afe { Afe.Afe_config.nominal with cutoff_coarse = coarse } in
  Alcotest.(check bool) "more capacitance, lower cutoff" true
    (cutoff 4 > cutoff 32 && cutoff 32 > cutoff 63)

let test_pga_gain_table () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let g8 = Afe.Afe_chain.pga_gain_db afe { Afe.Afe_config.nominal with pga_gain = 8 } in
  check_close ~eps:1.5 "code 8 is ~16 dB" 16.0 g8;
  let g12 = Afe.Afe_chain.pga_gain_db afe { Afe.Afe_config.nominal with pga_gain = 12 } in
  check_close ~eps:2.5 "2 dB per step" 8.0 (g12 -. g8)

let test_run_amplifies_and_filters () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let config = Afe.Afe_config.nominal in
  let fs = Afe.Afe_chain.fs in
  let n = 4096 in
  let in_band = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs ~n in
  let out_band = Sigkit.Waveform.coherent_frequency ~freq:4e6 ~fs ~n in
  let ac_rms samples =
    let tail = Array.sub samples (n / 2) (n / 2) in
    let mean = Sigkit.Waveform.mean tail in
    Sigkit.Waveform.rms (Array.map (fun v -> v -. mean) tail)
  in
  let gain_at freq =
    let x = Sigkit.Waveform.tone ~amplitude:5e-3 ~freq ~fs n in
    ac_rms (Afe.Afe_chain.run afe config x) /. Sigkit.Waveform.rms x
  in
  Alcotest.(check bool) "passband gain >> stopband gain" true
    (gain_at in_band > 4.0 *. gain_at out_band)

(* [Afe_chain.run] as it was first written, kept as the reference for
   the loop that replaced it: [Circuit.Nonlinear.apply] and one
   [Rng.gaussian] draw per sample, the biquad state in refs captured by
   an [Array.map] closure.  The die's Q skew, noise and raw offset are
   re-derived from the process draws [Afe_chain.create] makes. *)
let reference_run chip (config : Afe.Afe_config.t) input =
  let afe = Afe.Afe_chain.create chip in
  let fs = Afe.Afe_chain.fs in
  let gain = Sigkit.Decibel.power_ratio_of_db (Afe.Afe_chain.pga_gain_db afe config /. 2.0) in
  let pga = Circuit.Nonlinear.create ~gain ~iip3_dbm:24.0 ~rail:1.6 () in
  let f_c = Float.max 1e3 (Float.min (fs /. 2.2) (Afe.Afe_chain.cutoff_hz afe config)) in
  let skew = Circuit.Process.parameter chip ~name:"afe.q" ~nominal:1.0 ~sigma_pct:10.0 in
  let q = Float.max 0.2 (skew *. (0.4 +. (0.055 *. float_of_int config.q_trim))) in
  let w0 = 2.0 *. Float.pi *. f_c /. fs in
  let alpha = sin w0 /. (2.0 *. q) in
  let b1 = 1.0 -. cos w0 in
  let b0 = b1 /. 2.0 and b2 = b1 /. 2.0 in
  let a0 = 1.0 +. alpha and a1 = -2.0 *. cos w0 and a2 = 1.0 -. alpha in
  let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
  let noise = Circuit.Process.noise_stream chip ~name:"afe.run" in
  let noise_sigma =
    Circuit.Process.parameter chip ~name:"afe.noise" ~nominal:60e-6 ~sigma_pct:10.0
  in
  let offset =
    Circuit.Process.offset chip ~name:"afe.offset" ~sigma:8e-3
    -. ((float_of_int config.offset_trim -. 16.0) *. 0.7e-3)
  in
  Array.map
    (fun x ->
      let amplified = Circuit.Nonlinear.apply pga (x +. (noise_sigma *. Sigkit.Rng.gaussian noise)) in
      let y =
        ((b0 *. amplified) +. (b1 *. !x1) +. (b2 *. !x2) -. (a1 *. !y1) -. (a2 *. !y2)) /. a0
      in
      x2 := !x1;
      x1 := amplified;
      y2 := !y1;
      y1 := y;
      y +. offset)
    input

(* The capture loop equals the reference bit for bit over seeded dies
   and words, at lengths around the 4096-sample poll block and of both
   parities (the noise batch's Box-Muller spare), and with tones loud
   enough to reach the PGA's rail. *)
let test_run_equals_reference () =
  let fs = Afe.Afe_chain.fs in
  let rng = Sigkit.Rng.create 77 in
  let bits = Int64.bits_of_float in
  List.iter
    (fun seed ->
      let chip = chip ~seed () in
      let afe = Afe.Afe_chain.create chip in
      let configs =
        Afe.Afe_config.nominal :: List.init 3 (fun _ -> Afe.Afe_config.random rng)
      in
      List.iter
        (fun config ->
          List.iter
            (fun (n, amplitude) ->
              let freq = Sigkit.Waveform.coherent_frequency ~freq:200e3 ~fs ~n:(max n 1) in
              let x = Sigkit.Waveform.tone ~amplitude ~freq ~fs n in
              let got = Afe.Afe_chain.run afe config x in
              let want = reference_run chip config x in
              if
                not
                  (Array.length got = Array.length want
                  && Array.for_all2 (fun a b -> Int64.equal (bits a) (bits b)) got want)
              then
                Alcotest.failf "die %d, word %06x, n = %d, amplitude %g differs from the reference"
                  seed (Afe.Afe_config.to_bits config) n amplitude)
            [ (0, 5e-3); (1, 5e-3); (4095, 5e-3); (4097, 0.3); (8192, 5e-3); (9001, 2.0) ])
        configs)
    [ 9001; 1; 7; 42 ]

let test_measurement_fields () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let m = Afe.Afe_chain.measure afe Afe.Afe_config.nominal in
  Alcotest.(check bool) "gain finite" true (Float.is_finite m.Afe.Afe_chain.gain_db);
  Alcotest.(check bool) "cutoff error non-negative" true (m.Afe.Afe_chain.cutoff_error_hz >= 0.0);
  Alcotest.(check bool) "THD positive dB" true (m.Afe.Afe_chain.thd_db > 0.0)

(* ----------------------------------------------------------- Calibration *)

let test_calibration_in_spec () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let report = Afe.Afe_calibrate.run afe in
  Alcotest.(check bool) "calibration reaches spec" true report.Afe.Afe_calibrate.in_spec;
  Alcotest.(check bool) "bench runs counted" true (report.Afe.Afe_calibrate.bench_runs > 5)

let test_calibration_per_die () =
  let k1 = (Afe.Afe_calibrate.run (Afe.Afe_chain.create (chip ~seed:9001 ()))).Afe.Afe_calibrate.key in
  let k2 = (Afe.Afe_calibrate.run (Afe.Afe_chain.create (chip ~seed:9002 ()))).Afe.Afe_calibrate.key in
  Alcotest.(check bool) "keys differ between dice" false (Afe.Afe_config.equal k1 k2)

let test_random_keys_break () =
  let afe = Afe.Afe_chain.create (chip ()) in
  let rng = Sigkit.Rng.create 77 in
  let spec = Afe.Afe_chain.default_spec in
  let working =
    List.length
      (List.filter
         (fun _ ->
           Afe.Afe_chain.in_spec spec (Afe.Afe_chain.measure afe (Afe.Afe_config.random rng)))
         (List.init 10 Fun.id))
  in
  Alcotest.(check bool) "at most one lucky key in ten" true (working <= 1)

(* ------------------------------------------------------------ Properties *)

let prop_config_roundtrip =
  QCheck.Test.make ~name:"AFE config codec roundtrips" ~count:300
    QCheck.(int_range 0 ((1 lsl 24) - 1))
    (fun bits -> Afe.Afe_config.to_bits (Afe.Afe_config.of_bits bits) = bits)

let prop_random_valid =
  QCheck.Test.make ~name:"random AFE configs validate" ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Sigkit.Rng.create seed in
      Result.is_ok (Afe.Afe_config.validate (Afe.Afe_config.random rng)))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "afe"
    [
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "hamming" `Quick test_config_hamming;
        ] );
      ( "chain",
        [
          Alcotest.test_case "cutoff monotone" `Quick test_cutoff_monotone_in_caps;
          Alcotest.test_case "PGA gain table" `Quick test_pga_gain_table;
          Alcotest.test_case "amplify and filter" `Quick test_run_amplifies_and_filters;
          Alcotest.test_case "capture loop equals the per-sample reference" `Quick
            test_run_equals_reference;
          Alcotest.test_case "measurement fields" `Slow test_measurement_fields;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "in spec" `Slow test_calibration_in_spec;
          Alcotest.test_case "per die" `Slow test_calibration_per_die;
          Alcotest.test_case "random keys break" `Slow test_random_keys_break;
        ] );
      ("properties", qcheck [ prop_config_roundtrip; prop_random_valid ]);
    ]
