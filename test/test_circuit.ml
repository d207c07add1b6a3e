(* Unit and property tests for the behavioural circuit substrate. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let chip ?(seed = 42) () = Circuit.Process.fabricate ~seed ()

(* -------------------------------------------------------------- Process *)

let test_process_deterministic () =
  let a = chip () and b = chip () in
  let pa = Circuit.Process.parameter a ~name:"x" ~nominal:1.0 ~sigma_pct:5.0 in
  let pb = Circuit.Process.parameter b ~name:"x" ~nominal:1.0 ~sigma_pct:5.0 in
  check_close "same chip, same parameter" pa pb;
  check_close "repeated read is stable" pa
    (Circuit.Process.parameter a ~name:"x" ~nominal:1.0 ~sigma_pct:5.0)

let test_process_chips_differ () =
  let a = chip ~seed:1 () and b = chip ~seed:2 () in
  let pa = Circuit.Process.parameter a ~name:"x" ~nominal:1.0 ~sigma_pct:5.0 in
  let pb = Circuit.Process.parameter b ~name:"x" ~nominal:1.0 ~sigma_pct:5.0 in
  Alcotest.(check bool) "different dice differ" true (pa <> pb)

let test_process_names_differ () =
  let c = chip () in
  let pa = Circuit.Process.parameter c ~name:"a" ~nominal:1.0 ~sigma_pct:5.0 in
  let pb = Circuit.Process.parameter c ~name:"b" ~nominal:1.0 ~sigma_pct:5.0 in
  Alcotest.(check bool) "different parameters differ" true (pa <> pb)

let test_process_sigma_zero () =
  let c = Circuit.Process.fabricate ~lot_sigma_scale:0.0 ~seed:5 () in
  check_close "ideal process returns nominal" 2.5
    (Circuit.Process.parameter c ~name:"y" ~nominal:2.5 ~sigma_pct:10.0);
  check_close "ideal offset is zero" 0.0 (Circuit.Process.offset c ~name:"z" ~sigma:0.1);
  Alcotest.(check bool) "variation flag" false (Circuit.Process.variation_enabled c)

let test_process_spread () =
  (* Across many dice the parameter spread matches the requested sigma. *)
  let n = 2000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for seed = 1 to n do
    let c = chip ~seed () in
    let p = Circuit.Process.parameter c ~name:"spread" ~nominal:1.0 ~sigma_pct:5.0 in
    sum := !sum +. p;
    sum2 := !sum2 +. (p *. p)
  done;
  let mean = !sum /. float_of_int n in
  let sigma = sqrt ((!sum2 /. float_of_int n) -. (mean *. mean)) in
  check_close ~eps:0.005 "mean is nominal" 1.0 mean;
  check_close ~eps:0.005 "sigma is 5%" 0.05 sigma

let test_noise_stream_reproducible () =
  let c = chip () in
  let s1 = Circuit.Process.noise_stream c ~name:"n" in
  let s2 = Circuit.Process.noise_stream c ~name:"n" in
  Alcotest.(check int64) "stream restarts at origin" (Sigkit.Rng.bits64 s1) (Sigkit.Rng.bits64 s2)

(* ------------------------------------------------------------ Cap_array *)

(* Binary-weighted arrays are monotone up to mismatch-limited DNL: a
   major-carry step may reverse by a few sigma of the MSB mismatch, but
   never by more, and the global trend must hold. *)
let test_cap_binary_monotonic () =
  let arr =
    Circuit.Cap_array.create (chip ()) ~name:"c" ~bits:8 ~unit_cap:70e-15 ~mismatch_sigma_pct:1.0
  in
  let msb_sigma = 0.01 *. 128.0 *. 70e-15 in
  let dnl_bound = 6.0 *. msb_sigma in
  let prev = ref (Circuit.Cap_array.capacitance arr 0) in
  for code = 1 to Circuit.Cap_array.max_code arr do
    let c = Circuit.Cap_array.capacitance arr code in
    if c < !prev -. dnl_bound then Alcotest.failf "DNL beyond mismatch bound at code %d" code;
    prev := c
  done;
  Alcotest.(check bool) "global trend" true
    (Circuit.Cap_array.capacitance arr 255 > Circuit.Cap_array.capacitance arr 0)

let test_cap_binary_unique () =
  let arr =
    Circuit.Cap_array.create (chip ()) ~name:"c" ~bits:8 ~unit_cap:70e-15 ~mismatch_sigma_pct:1.0
  in
  let target = Circuit.Cap_array.capacitance arr 131 in
  Alcotest.(check int) "binary-weighted code is unique" 1
    (Circuit.Cap_array.code_count_for_capacitance arr ~target ~tolerance:30e-15)

let test_cap_unit_switched_multiplicity () =
  let arr =
    Circuit.Cap_array.create ~coding:Circuit.Cap_array.Unit_switched (chip ()) ~name:"u" ~bits:8
      ~unit_cap:70e-15 ~mismatch_sigma_pct:1.0
  in
  let target = Circuit.Cap_array.capacitance arr 0b00001111 in
  let count = Circuit.Cap_array.code_count_for_capacitance arr ~target ~tolerance:35e-15 in
  (* Any 4-of-8 subset hits the same value: C(8,4) = 70 codes. *)
  Alcotest.(check bool) "unit-switched multiplicity" true (count >= 50)

let test_cap_range_check () =
  let arr =
    Circuit.Cap_array.create (chip ()) ~name:"c" ~bits:4 ~unit_cap:1e-15 ~mismatch_sigma_pct:0.0
  in
  Alcotest.check_raises "negative code" (Invalid_argument "Cap_array.capacitance: code out of range")
    (fun () -> ignore (Circuit.Cap_array.capacitance arr (-1)))

(* ------------------------------------------------------------ Resonator *)

let test_resonator_frequency () =
  let fs = 12e9 in
  List.iter
    (fun f_res ->
      let theta = 2.0 *. Float.pi *. f_res /. fs in
      let res = Circuit.Resonator.create ~theta ~r:1.02 () in
      match Circuit.Resonator.oscillation_frequency res ~fs ~n:8192 with
      | Some f -> check_close ~eps:1e6 "oscillation frequency" f_res f
      | None -> Alcotest.fail "should oscillate at r > 1")
    [ 1.5e9; 2.4e9; 3.0e9 ]

let test_resonator_damped_silent () =
  let res = Circuit.Resonator.create ~theta:(Float.pi /. 2.0) ~r:0.99 () in
  Alcotest.(check bool) "damped tank does not oscillate" true
    (Circuit.Resonator.oscillation_frequency res ~fs:12e9 ~n:8192 = None)

let test_resonator_theta_of_lc () =
  (* 0.5 nH with 5.63 pF resonates at 3 GHz. *)
  let theta = Circuit.Resonator.theta_of_lc ~l:0.5e-9 ~c:5.63e-12 ~fs:12e9 in
  check_close ~eps:0.01 "theta for 3 GHz at 12 GS/s" (Float.pi /. 2.0) theta

let test_resonator_gain_peaks_at_resonance () =
  let fs = 12e9 in
  let theta = Float.pi /. 2.0 in
  let gain freq =
    let res = Circuit.Resonator.create ~theta ~r:0.98 () in
    let x = Sigkit.Waveform.tone ~amplitude:0.01 ~freq ~fs 4096 in
    let y = Circuit.Resonator.run res x in
    Sigkit.Waveform.rms (Array.sub y 2048 2048) /. Sigkit.Waveform.rms x
  in
  let on_res = gain 3.0e9 and off_res = gain 2.0e9 in
  Alcotest.(check bool) "resonant gain dominates" true (on_res > 4.0 *. off_res)

let test_resonator_step_split () =
  (* output/feed must compose to exactly step. *)
  let mk () = Circuit.Resonator.create ~theta:1.0 ~r:0.9 () in
  let a = mk () and b = mk () in
  let rng = Sigkit.Rng.create 4 in
  for _ = 1 to 100 do
    let x = Sigkit.Rng.gaussian rng in
    let ya = Circuit.Resonator.step a x in
    let yb = Circuit.Resonator.output b in
    Circuit.Resonator.feed b x;
    check_close "split API equals step" ya yb
  done

(* ------------------------------------------------------------ Nonlinear *)

let test_nonlinear_gain () =
  let stage = Circuit.Nonlinear.create ~gain:10.0 ~iip3_dbm:20.0 () in
  let y = Circuit.Nonlinear.apply stage 1e-4 in
  check_close ~eps:1e-6 "small-signal gain" 1e-3 y

let test_nonlinear_im3_level () =
  (* Two tones at P_in give IM3 at 2(P_in - IIP3) dBc. *)
  let fs = 1e6 and n = 8192 in
  let iip3 = 0.0 and p_in = -20.0 in
  let stage = Circuit.Nonlinear.create ~gain:1.0 ~iip3_dbm:iip3 ~rail:100.0 () in
  let f1 = Sigkit.Waveform.coherent_frequency ~freq:100e3 ~fs ~n in
  let f2 = Sigkit.Waveform.coherent_frequency ~freq:110e3 ~fs ~n in
  let x = Sigkit.Waveform.two_tone_dbm ~p_dbm:p_in ~f1 ~f2 ~fs n in
  let y = Circuit.Nonlinear.run stage x in
  let spec = Sigkit.Spectrum.periodogram ~fs y in
  let fund = Sigkit.Spectrum.tone_power spec ~freq:f2 in
  let im3 = Sigkit.Spectrum.tone_power spec ~freq:((2.0 *. f2) -. f1) in
  let im3_dbc = Sigkit.Decibel.db_of_power_ratio (im3 /. fund) in
  check_close ~eps:1.5 "IM3 level" (2.0 *. (p_in -. iip3)) im3_dbc

let test_nonlinear_rail () =
  let stage = Circuit.Nonlinear.create ~gain:1.0 ~iip3_dbm:100.0 ~rail:1.0 () in
  Alcotest.(check bool) "rail saturates" true (Circuit.Nonlinear.apply stage 100.0 <= 1.0)

let test_nonlinear_linear () =
  let stage = Circuit.Nonlinear.linear ~gain:3.0 in
  check_close "linear stage" 30.0 (Circuit.Nonlinear.apply stage 10.0)

(* ----------------------------------------------------------- Comparator *)

let test_comparator_clocked () =
  let c = Circuit.Comparator.create () in
  check_close "positive" 1.0 (Circuit.Comparator.step c 0.3);
  check_close "negative" (-1.0) (Circuit.Comparator.step c (-0.3))

let test_comparator_offset () =
  let c = Circuit.Comparator.create ~offset:0.5 () in
  check_close "offset flips decision" 1.0 (Circuit.Comparator.step c (-0.3))

let test_comparator_hysteresis () =
  let c = Circuit.Comparator.create ~hysteresis:0.2 () in
  let _ = Circuit.Comparator.step c 1.0 in
  (* Inside the dead zone the previous decision holds. *)
  check_close "dead zone holds" 1.0 (Circuit.Comparator.step c (-0.1));
  check_close "outside flips" (-1.0) (Circuit.Comparator.step c (-0.3))

let test_comparator_buffer () =
  let c = Circuit.Comparator.create ~mode:Circuit.Comparator.Buffer () in
  (* DC passes with the buffer gain once the low-pass settles. *)
  let v = ref 0.0 in
  for _ = 1 to 200 do
    v := Circuit.Comparator.step c 1.0
  done;
  check_close ~eps:1e-3 "buffer DC gain" Circuit.Comparator.buffer_gain !v;
  for _ = 1 to 500 do
    v := Circuit.Comparator.step c 100.0
  done;
  check_close "buffer clips" Circuit.Comparator.buffer_clip !v

(* --------------------------------------------------------- Noise_source *)

let test_noise_sigma () =
  let src = Circuit.Noise_source.create (chip ()) ~name:"n" ~sigma:0.1 in
  let samples = Circuit.Noise_source.run src 50_000 in
  check_close ~eps:0.005 "sample sigma" 0.1 (Sigkit.Waveform.rms samples)

let test_noise_figure_floor () =
  (* NF 0 dB over 6 GHz into 50 ohm: sqrt(kTB * R) ~ 35 uV. *)
  let src = Circuit.Noise_source.of_noise_figure (chip ()) ~name:"nf" ~nf_db:0.0 ~fs:12e9 in
  check_close ~eps:2e-6 "kTB floor" 35e-6 (Circuit.Noise_source.sigma src)

(* ---------------------------------------------------------------- Aging *)

let test_aging_accumulates () =
  let c = chip () in
  Alcotest.(check (float 1e-12)) "fresh silicon" 0.0 (Circuit.Process.age_hours c);
  let aged = Circuit.Process.age (Circuit.Process.age c ~hours:100.0) ~hours:50.0 in
  Alcotest.(check (float 1e-9)) "hours accumulate" 150.0 (Circuit.Process.age_hours aged);
  Alcotest.(check int) "identity preserved" (Circuit.Process.seed c) (Circuit.Process.seed aged)

let test_aging_drifts_parameters () =
  let c = chip () in
  let fresh = Circuit.Process.parameter c ~name:"drifter" ~nominal:1.0 ~sigma_pct:5.0 in
  let old_chip = Circuit.Process.age c ~hours:1e5 in
  let old_value = Circuit.Process.parameter old_chip ~name:"drifter" ~nominal:1.0 ~sigma_pct:5.0 in
  Alcotest.(check bool) "a decade of use moves the parameter" true
    (Float.abs (old_value -. fresh) > 1e-4);
  (* Drift grows with age. *)
  let mid = Circuit.Process.parameter (Circuit.Process.age c ~hours:1e3) ~name:"drifter"
      ~nominal:1.0 ~sigma_pct:5.0 in
  Alcotest.(check bool) "monotone drift magnitude" true
    (Float.abs (old_value -. fresh) > Float.abs (mid -. fresh))

let test_aging_preserves_entropy () =
  (* The PUF must not care about use: same die, same noise streams. *)
  let c = chip () in
  let aged = Circuit.Process.age c ~hours:1e5 in
  let a = Circuit.Process.noise_stream c ~name:"id" in
  let b = Circuit.Process.noise_stream aged ~name:"id" in
  Alcotest.(check int64) "noise stream unchanged by age" (Sigkit.Rng.bits64 a) (Sigkit.Rng.bits64 b)

let test_aging_rejects_negative () =
  Alcotest.check_raises "negative hours" (Invalid_argument "Process.age: negative hours")
    (fun () -> ignore (Circuit.Process.age (chip ()) ~hours:(-1.0)))

(* A non-finite age would reach the tank as a nan capacitance: the die
   is refused where it is aged, as a negative age is, and an aging
   fault built by hand fails there rather than inside calibration. *)
let test_aging_rejects_non_finite () =
  let refused what hours =
    Alcotest.check_raises what (Invalid_argument "Process.age: non-finite hours") (fun () ->
        ignore (Circuit.Process.age (chip ()) ~hours))
  in
  refused "infinite hours" infinity;
  refused "nan hours" nan;
  Alcotest.check_raises "an overflowing total" (Invalid_argument "Process.age: non-finite hours")
    (fun () -> ignore (Circuit.Process.age (Circuit.Process.age (chip ()) ~hours:max_float) ~hours:max_float))

(* ------------------------------------------------------------ Properties *)

let prop_cap_monotone =
  QCheck.Test.make ~name:"binary cap arrays are monotone up to MSB mismatch" ~count:30
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, bits) ->
      let arr =
        Circuit.Cap_array.create (chip ~seed ()) ~name:"p" ~bits ~unit_cap:50e-15
          ~mismatch_sigma_pct:1.0
      in
      (* Allowed reversal: a few sigma of the largest branch mismatch. *)
      let dnl_bound = 6.0 *. 0.01 *. float_of_int (1 lsl (bits - 1)) *. 50e-15 in
      let ok = ref true in
      for code = 1 to Circuit.Cap_array.max_code arr do
        if
          Circuit.Cap_array.capacitance arr code
          < Circuit.Cap_array.capacitance arr (code - 1) -. dnl_bound
        then ok := false
      done;
      !ok)

let prop_comparator_output_bounded =
  QCheck.Test.make ~name:"comparator output in [-1, 1]" ~count:200
    QCheck.(pair (float_range (-100.) 100.) bool)
    (fun (x, buffered) ->
      let mode = if buffered then Circuit.Comparator.Buffer else Circuit.Comparator.Clocked in
      let c = Circuit.Comparator.create ~mode () in
      let v = Circuit.Comparator.step c x in
      v >= -1.0 && v <= 1.0)

let prop_nonlinear_odd_symmetry =
  QCheck.Test.make ~name:"a2=0 stages are odd-symmetric" ~count:100
    QCheck.(float_range (-1.) 1.)
    (fun x ->
      let stage = Circuit.Nonlinear.create ~gain:2.0 ~iip3_dbm:10.0 () in
      Float.abs (Circuit.Nonlinear.apply stage x +. Circuit.Nonlinear.apply stage (-.x)) < 1e-9)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "circuit"
    [
      ( "process",
        [
          Alcotest.test_case "deterministic" `Quick test_process_deterministic;
          Alcotest.test_case "chips differ" `Quick test_process_chips_differ;
          Alcotest.test_case "names differ" `Quick test_process_names_differ;
          Alcotest.test_case "sigma zero" `Quick test_process_sigma_zero;
          Alcotest.test_case "ensemble spread" `Slow test_process_spread;
          Alcotest.test_case "noise stream" `Quick test_noise_stream_reproducible;
        ] );
      ( "cap_array",
        [
          Alcotest.test_case "monotone" `Quick test_cap_binary_monotonic;
          Alcotest.test_case "unique code" `Quick test_cap_binary_unique;
          Alcotest.test_case "unit-switched multiplicity" `Quick test_cap_unit_switched_multiplicity;
          Alcotest.test_case "range check" `Quick test_cap_range_check;
        ] );
      ( "resonator",
        [
          Alcotest.test_case "oscillation frequency" `Quick test_resonator_frequency;
          Alcotest.test_case "damped is silent" `Quick test_resonator_damped_silent;
          Alcotest.test_case "theta of LC" `Quick test_resonator_theta_of_lc;
          Alcotest.test_case "resonant gain" `Quick test_resonator_gain_peaks_at_resonance;
          Alcotest.test_case "split API" `Quick test_resonator_step_split;
        ] );
      ( "nonlinear",
        [
          Alcotest.test_case "small-signal gain" `Quick test_nonlinear_gain;
          Alcotest.test_case "IM3 level" `Quick test_nonlinear_im3_level;
          Alcotest.test_case "rail" `Quick test_nonlinear_rail;
          Alcotest.test_case "linear stage" `Quick test_nonlinear_linear;
        ] );
      ( "comparator",
        [
          Alcotest.test_case "clocked" `Quick test_comparator_clocked;
          Alcotest.test_case "offset" `Quick test_comparator_offset;
          Alcotest.test_case "hysteresis" `Quick test_comparator_hysteresis;
          Alcotest.test_case "buffer mode" `Quick test_comparator_buffer;
        ] );
      ( "noise",
        [
          Alcotest.test_case "sigma" `Quick test_noise_sigma;
          Alcotest.test_case "noise figure floor" `Quick test_noise_figure_floor;
        ] );
      ( "aging",
        [
          Alcotest.test_case "accumulates" `Quick test_aging_accumulates;
          Alcotest.test_case "drifts parameters" `Quick test_aging_drifts_parameters;
          Alcotest.test_case "preserves entropy" `Quick test_aging_preserves_entropy;
          Alcotest.test_case "rejects negative" `Quick test_aging_rejects_negative;
          Alcotest.test_case "rejects non-finite" `Quick test_aging_rejects_non_finite;
        ] );
      ( "properties",
        qcheck [ prop_cap_monotone; prop_comparator_output_bounded; prop_nonlinear_odd_symmetry ] );
    ]
