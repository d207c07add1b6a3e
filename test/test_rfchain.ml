(* Unit and property tests for the RF receiver chain. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let chip ?(seed = 42) () = Circuit.Process.fabricate ~seed ()
let std = Rfchain.Standards.max_frequency

(* ------------------------------------------------------------ Standards *)

let test_standards_fs () =
  check_close "fs = 4 f0" 12e9 (Rfchain.Standards.fs std);
  check_close "band = fs / (2 OSR)" 93.75e6 (Rfchain.Standards.band_hz std)

let test_standards_lookup () =
  Alcotest.(check string) "find bluetooth" "bluetooth" (Rfchain.Standards.find "bluetooth").name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Rfchain.Standards.find "nope"));
  Alcotest.(check bool) "range covered" true
    (List.for_all
       (fun s -> s.Rfchain.Standards.f0_hz >= 1.5e9 && s.Rfchain.Standards.f0_hz <= 3.0e9)
       Rfchain.Standards.all)

(* --------------------------------------------------------------- Config *)

let test_config_roundtrip_nominal () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check bool) "roundtrip" true
    (Rfchain.Config.equal c (Rfchain.Config.of_bits (Rfchain.Config.to_bits c)))

let test_config_field_access () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check int) "read" c.Rfchain.Config.gm_q (Rfchain.Config.field c "gm_q");
  let c2 = Rfchain.Config.with_field c "gm_q" 17 in
  Alcotest.(check int) "write" 17 c2.Rfchain.Config.gm_q;
  Alcotest.(check int) "bool as int" 1 (Rfchain.Config.field c "fb_enable");
  Alcotest.check_raises "unknown field" (Invalid_argument "Config: unknown field nope") (fun () ->
      ignore (Rfchain.Config.field c "nope"))

let test_config_widths_cover_64 () =
  let total =
    List.fold_left (fun acc f -> acc + Rfchain.Config.field_width f) 0 Rfchain.Config.field_names
  in
  Alcotest.(check int) "fields cover all 64 bits" 64 total

let test_config_validate () =
  Alcotest.(check bool) "nominal valid" true
    (Result.is_ok (Rfchain.Config.validate Rfchain.Config.nominal))

let test_config_hamming () =
  let c = Rfchain.Config.nominal in
  Alcotest.(check int) "self distance" 0 (Rfchain.Config.hamming_distance c c);
  let c2 = Rfchain.Config.with_field c "gm_q" (c.Rfchain.Config.gm_q lxor 1) in
  Alcotest.(check int) "one bit" 1 (Rfchain.Config.hamming_distance c c2)

(* ---------------------------------------------------------------- Vglna *)

let test_vglna_gain_table () =
  check_close "code 0" 8.0 (Rfchain.Vglna.nominal_gain_db ~code:0);
  check_close "code 15" 38.0 (Rfchain.Vglna.nominal_gain_db ~code:15);
  Alcotest.(check int) "inverse" 9 (Rfchain.Vglna.code_for_gain_db 26.0)

let test_vglna_segments () =
  Alcotest.(check int) "weak signal, high gain" 14 (Rfchain.Vglna.segment_code ~p_dbm:(-70.0));
  Alcotest.(check int) "mid" 9 (Rfchain.Vglna.segment_code ~p_dbm:(-30.0));
  Alcotest.(check int) "strong signal, low gain" 3 (Rfchain.Vglna.segment_code ~p_dbm:(-5.0))

let test_vglna_amplifies () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  let x = Sigkit.Waveform.tone_dbm ~p_dbm:(-40.0) ~freq:3e9 ~fs:12e9 4096 in
  let y = Rfchain.Vglna.run lna ~code:10 x in
  let gain_db =
    Sigkit.Decibel.db_of_amplitude_ratio (Sigkit.Waveform.rms y /. Sigkit.Waveform.rms x)
  in
  check_close ~eps:1.5 "realised gain near table" 28.0 gain_db

let test_vglna_nf_trend () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  Alcotest.(check bool) "NF worsens at low gain" true
    (Rfchain.Vglna.noise_figure_db lna ~code:0 > Rfchain.Vglna.noise_figure_db lna ~code:15);
  Alcotest.(check bool) "IIP3 improves at low gain" true
    (Rfchain.Vglna.iip3_dbm lna ~code:0 > Rfchain.Vglna.iip3_dbm lna ~code:15)

let test_vglna_code_range () =
  let lna = Rfchain.Vglna.create (chip ()) ~fs:12e9 in
  Alcotest.check_raises "bad code" (Invalid_argument "Vglna: gain code out of range") (fun () ->
      ignore (Rfchain.Vglna.gain_db lna ~code:16))

(* ------------------------------------------------------------------ Sdm *)

let tuned_config rx =
  (* Ground-truth tuning helper for tests. *)
  let f0 = (Rfchain.Receiver.standard rx).Rfchain.Standards.f0_hz in
  let best = ref Rfchain.Config.nominal and best_err = ref infinity in
  for coarse = 0 to 255 do
    let cfg = { Rfchain.Config.nominal with cap_coarse = coarse } in
    let err =
      Float.abs (Rfchain.Sdm.tank_frequency (Rfchain.Receiver.sdm_of_config rx cfg) -. f0)
    in
    if err < !best_err then begin
      best := cfg;
      best_err := err
    end
  done;
  let coarse = !best.Rfchain.Config.cap_coarse in
  for fine = 0 to 255 do
    let cfg = { Rfchain.Config.nominal with cap_coarse = coarse; cap_fine = fine } in
    let err =
      Float.abs (Rfchain.Sdm.tank_frequency (Rfchain.Receiver.sdm_of_config rx cfg) -. f0)
    in
    if err < !best_err then begin
      best := cfg;
      best_err := err
    end
  done;
  let gm_q = ref 0 in
  for code = 0 to 63 do
    if not (Rfchain.Sdm.oscillates (Rfchain.Receiver.sdm_of_config rx { !best with gm_q = code }))
    then gm_q := code
  done;
  {
    !best with
    gm_q = !gm_q;
    loop_delay = Rfchain.Sdm.required_delay_code (Rfchain.Receiver.chip rx) ~fs:(Rfchain.Receiver.fs rx);
  }

let test_sdm_tank_monotone_in_caps () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let freq coarse =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx { Rfchain.Config.nominal with cap_coarse = coarse })
  in
  Alcotest.(check bool) "more capacitance, lower frequency" true
    (freq 0 > freq 64 && freq 64 > freq 192)

let test_sdm_tuning_range () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let f_max =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx
         { Rfchain.Config.nominal with cap_coarse = 0; cap_fine = 0 })
  in
  let f_min =
    Rfchain.Sdm.tank_frequency
      (Rfchain.Receiver.sdm_of_config rx
         { Rfchain.Config.nominal with cap_coarse = 255; cap_fine = 255 })
  in
  Alcotest.(check bool) "covers 1.5-3.0 GHz" true (f_min < 1.5e9 && f_max > 3.0e9)

let test_sdm_oscillation_threshold () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let sdm_at gm_q =
    Rfchain.Receiver.sdm_of_config rx { Rfchain.Config.nominal with gm_q }
  in
  Alcotest.(check bool) "max -Gm oscillates" true (Rfchain.Sdm.oscillates (sdm_at 63));
  Alcotest.(check bool) "min -Gm is damped" false (Rfchain.Sdm.oscillates (sdm_at 0))

let test_sdm_bitstream_output () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-30.0) ~freq:3.02e9 ~fs 4096 in
  let amplified = Array.map (fun v -> v *. 20.0) input in
  let out = Rfchain.Sdm.run sdm amplified in
  Alcotest.(check bool) "clocked output is a bitstream" true
    (Array.for_all (fun v -> v = 1.0 || v = -1.0) out)

let test_sdm_noise_shaping () =
  (* The tuned modulator must clear 35 dB SNR; a 60-code cap offset must
     wreck it — the essence of the locking mechanism. *)
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let bench = Metrics.Measure.create rx in
  let good = Metrics.Measure.snr_mod_db bench cfg in
  let detuned =
    Metrics.Measure.snr_mod_db bench
      { cfg with cap_coarse = min 255 (cfg.Rfchain.Config.cap_coarse + 60) }
  in
  Alcotest.(check bool) (Printf.sprintf "tuned SNR > 35 (got %.1f)" good) true (good > 35.0);
  Alcotest.(check bool) (Printf.sprintf "detuned SNR < 10 (got %.1f)" detuned) true (detuned < 10.0)

let test_sdm_buffer_mode_analog () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.comp_clock_enable = false; fb_enable = false } in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 4096 in
  let out = Rfchain.Sdm.run sdm (Array.map (fun v -> v *. 20.0) input) in
  let analog = Array.exists (fun v -> Float.abs v <> 1.0 && Float.abs v > 1e-12) out in
  Alcotest.(check bool) "buffer mode passes analog values" true analog

let test_sdm_gmin_disable () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.gmin_enable = false } in
  let bench = Metrics.Measure.create rx in
  let snr = Metrics.Measure.snr_mod_db bench cfg in
  Alcotest.(check bool) (Printf.sprintf "no input, no signal (got %.1f)" snr) true (snr < 15.0)

let test_sdm_osc_matches_tank () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = { (tuned_config rx) with Rfchain.Config.gm_q = 63 } in
  let sdm = Rfchain.Receiver.sdm_of_config rx cfg in
  match Rfchain.Sdm.oscillation_frequency sdm ~n:8192 with
  | Some f -> check_close ~eps:2e6 "oscillation at tank frequency" (Rfchain.Sdm.tank_frequency sdm) f
  | None -> Alcotest.fail "must oscillate at gm_q 63"

(* ------------------------------------------------------------ Sdm oracle *)

(* The modulator loop composed from the behavioural circuit modules,
   with every noise sample drawn per sample: the structure that
   Sdm.run_into unrolls into one unboxed loop with the mode bits as
   loop invariants.  The two must agree bit for bit on every word. *)
let reference_sdm (t : Rfchain.Sdm.t) input =
  let n = Array.length input in
  let cfg = t.config in
  let hist_len = 8 in
  let hist_mask = hist_len - 1 in
  let k1 = 1.0 and k2 = -2.0 in
  let comp_noise = Circuit.Process.noise_stream t.chip ~name:"run.comp" in
  let comp_noise_sigma =
    if cfg.comp_clock_enable then t.comp_noise_sigma else Float.max t.comp_noise_sigma 0.05
  in
  let input_noise = Circuit.Process.noise_stream t.chip ~name:"run.input" in
  let jitter_noise = Circuit.Process.noise_stream t.chip ~name:"run.jitter" in
  let d_int = min (hist_len - 2) (int_of_float (Float.floor t.delay_samples)) in
  let d_frac = t.delay_samples -. float_of_int d_int in
  let res1 = Circuit.Resonator.create ~theta:t.tank1.theta ~r:t.r ~limit:50.0 () in
  let res2 = Circuit.Resonator.create ~theta:t.tank2.theta ~r:t.r ~limit:50.0 () in
  let comparator =
    Circuit.Comparator.create
      ~mode:(if cfg.comp_clock_enable then Circuit.Comparator.Clocked else Circuit.Comparator.Buffer)
      ~offset:t.comp_offset ~hysteresis:t.comp_hysteresis ~noise:comp_noise
      ~noise_sigma:comp_noise_sigma ()
  in
  let open_loop_offset = if cfg.fb_enable then 0.0 else 0.5 in
  let jitter_sigma = if cfg.comp_clock_enable then 0.0 else 0.2 in
  let v_prev = ref 0.0 in
  let hist = Array.make hist_len 0.0 in
  let head = ref 0 in
  Array.init n (fun i ->
      let w1 = Circuit.Resonator.output res1 in
      let w2 = Circuit.Resonator.output res2 in
      let v = Circuit.Comparator.step comparator (t.preamp_gain *. (w2 +. open_loop_offset)) in
      let h = (!head + hist_mask) land hist_mask in
      head := h;
      hist.(h) <- v;
      let v_delayed =
        ((1.0 -. d_frac) *. hist.((h + d_int) land hist_mask))
        +. (d_frac *. hist.((h + d_int + 1) land hist_mask))
      in
      let fb = if cfg.fb_enable then t.gdac *. (v_delayed +. t.dac_mismatch) else 0.0 in
      let u =
        let signal =
          if cfg.gmin_enable then t.gmin *. Circuit.Nonlinear.apply t.gmin_stage input.(i)
          else 0.0
        in
        signal +. (t.input_noise_sigma *. Sigkit.Rng.gaussian input_noise)
      in
      Circuit.Resonator.feed res1 (u -. (k1 *. fb));
      Circuit.Resonator.feed res2 (w1 -. (k2 *. fb));
      let v_sampled =
        if jitter_sigma = 0.0 then v
        else begin
          let slope = v -. !v_prev in
          v_prev := v;
          v +. (jitter_sigma *. Sigkit.Rng.gaussian jitter_noise *. slope)
        end
      in
      if cfg.cal_buffer_enable then 1.2 *. tanh (t.buffer_gain *. v_sampled /. 1.2)
      else v_sampled)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Sdm.run_into into a stale buffer, twice: the first run of a (die,
   length) draws the noise, the second finds it tagged in the
   workspace.  Both must equal the oracle. *)
let sdm_matches_oracle sdm input =
  let n = Array.length input in
  let expected = reference_sdm sdm input in
  let run () =
    let out = Array.make (n + 3) Float.nan in
    Rfchain.Sdm.run_into sdm input out;
    Array.sub out 0 n
  in
  let first = run () in
  let again = run () in
  bits_equal expected first && bits_equal expected again

let oracle_input ~fs n =
  Array.map (fun v -> v *. 20.0) (Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n)

let with_modes cfg m =
  {
    cfg with
    Rfchain.Config.fb_enable = m land 1 <> 0;
    comp_clock_enable = m land 2 <> 0;
    gmin_enable = m land 4 <> 0;
    cal_buffer_enable = m land 8 <> 0;
  }

let test_sdm_oracle_modes () =
  let fs = Rfchain.Standards.fs std in
  (* A die whose comparator comes out noiseless (sigma <= 0 under an
     extreme lot spread) exercises the no-draw branch. *)
  let quiet_die =
    let rec find seed =
      let c = Circuit.Process.fabricate ~lot_sigma_scale:20.0 ~seed () in
      if (Rfchain.Sdm.create c ~fs Rfchain.Config.nominal).comp_noise_sigma <= 0.0 then c
      else find (seed + 1)
    in
    find 1
  in
  let dies = [ ("die 42", chip ()); ("die 7", chip ~seed:7 ()); ("quiet die", quiet_die) ] in
  let base = Rfchain.Config.of_bits 0x5A3C_96E1_0F2D_4B87L in
  List.iter
    (fun n ->
      let input = oracle_input ~fs n in
      for m = 0 to 15 do
        List.iter
          (fun (name, c) ->
            List.iter
              (fun cfg ->
                let cfg = with_modes cfg m in
                if not (sdm_matches_oracle (Rfchain.Sdm.create c ~fs cfg) input) then
                  Alcotest.failf "run_into differs from the oracle: %s, modes %d, n = %d" name m n)
              [ Rfchain.Config.nominal; base ])
          dies
      done)
    [ 1537; 2048 ]

let prop_sdm_oracle_random_words =
  QCheck.Test.make ~name:"Sdm.run_into equals the circuit-module oracle on random words"
    ~count:40
    QCheck.(triple int64 (int_range 1 5000) (int_range 200 700))
    (fun (bits, seed, n) ->
      let fs = Rfchain.Standards.fs std in
      let sdm = Rfchain.Sdm.create (chip ~seed ()) ~fs (Rfchain.Config.of_bits bits) in
      sdm_matches_oracle sdm (oracle_input ~fs n))

(* ---------------------------------------------------------------- Mixer *)

let test_mixer_translates () =
  let fs = 12e9 and n = 4096 in
  let offset = 100e6 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:((fs /. 4.0) +. offset) ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let i_ch, q_ch = Rfchain.Mixer.downconvert x in
  (* Complex baseband tone at +offset: spectrum of i + jq peaks there.
     The real input also carries an exactly equal-magnitude image at
     fs/2 - offset (the aliased negative-frequency component), so
     search only the channel's quarter-band — the global argmax between
     two equal bins is decided by last-bit FFT rounding. *)
  let re = Array.copy i_ch and im = Array.copy q_ch in
  Sigkit.Fft.forward re im;
  let mag = Sigkit.Fft.magnitude_squared re im in
  let peak = ref 0 in
  for k = 0 to n / 4 do
    if mag.(k) > mag.(!peak) then peak := k
  done;
  let f_peak = float_of_int !peak *. fs /. float_of_int n in
  check_close ~eps:(fs /. float_of_int n) "baseband offset" (freq -. (fs /. 4.0)) f_peak

let test_mixer_quadrature () =
  let x = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let i_ch, q_ch = Rfchain.Mixer.downconvert x in
  Alcotest.(check (list (float 1e-9))) "I sequence" [ 1.; 0.; -3.; 0.; 5.; 0.; -7.; 0. ]
    (Array.to_list i_ch);
  Alcotest.(check (list (float 1e-9))) "Q sequence" [ 0.; -2.; 0.; 4.; 0.; -6.; 0.; 8. ]
    (Array.to_list q_ch)

(* ------------------------------------------------------------ Decimator *)

let test_decimator_bits () =
  let c = Rfchain.Decimator.default_config in
  Alcotest.(check int) "default ratio 64" 64 (Rfchain.Decimator.ratio c);
  for bits = 0 to 7 do
    Alcotest.(check int) "3-bit codec roundtrip" bits
      (Rfchain.Decimator.bits_of_config (Rfchain.Decimator.config_of_bits bits))
  done

let test_decimator_dc_gain () =
  let c = Rfchain.Decimator.default_config in
  let x = Array.make 8192 1.0 in
  let y = Rfchain.Decimator.decimate c x in
  Alcotest.(check int) "output length" 128 (Array.length y);
  (* Interior sample: the first outputs carry the CIC transient and the
     last the FIR edge. *)
  check_close ~eps:1e-6 "unity DC gain (steady state)" 1.0 y.(Array.length y / 2)

let test_decimator_passband () =
  let c = Rfchain.Decimator.default_config in
  let fs = 12e9 and n = 65536 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq:20e6 ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let y = Rfchain.Decimator.decimate c x in
  let steady = Array.sub y 64 (Array.length y - 64) in
  check_close ~eps:0.1 "in-band tone survives" (1.0 /. sqrt 2.0) (Sigkit.Waveform.rms steady)

let test_decimator_stopband () =
  let c = Rfchain.Decimator.default_config in
  let fs = 12e9 and n = 65536 in
  (* A tone just below an alias image of the output rate must be crushed. *)
  let freq = Sigkit.Waveform.coherent_frequency ~freq:(187.5e6 -. 20e6) ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude:1.0 ~freq ~fs n in
  let y = Rfchain.Decimator.decimate c x in
  let steady = Array.sub y 64 (Array.length y - 64) in
  Alcotest.(check bool) "alias image suppressed > 30 dB" true
    (Sigkit.Waveform.rms steady < 0.02)

(* ------------------------------------------------------------- Receiver *)

let test_receiver_end_to_end () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let cfg = tuned_config rx in
  let fs = Rfchain.Receiver.fs rx in
  let n = 2048 * 64 in
  let f_in = Rfchain.Receiver.test_tone_frequency rx ~n in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:f_in ~fs n in
  let res = Rfchain.Receiver.run rx ~analog:cfg ~input () in
  Alcotest.(check int) "mod output length" n (Array.length res.Rfchain.Receiver.mod_output);
  Alcotest.(check int) "baseband length" (n / 64) (Array.length res.Rfchain.Receiver.baseband_i);
  check_close "baseband rate" (fs /. 64.0) res.Rfchain.Receiver.fs_baseband;
  let snr =
    Metrics.Snr.of_baseband_iq ~n_fft:2048 ~fs:res.Rfchain.Receiver.fs_baseband
      ~f_signal:(f_in -. (fs /. 4.0))
      ~f_band:(Rfchain.Standards.band_hz std /. 2.0)
      (res.Rfchain.Receiver.baseband_i, res.Rfchain.Receiver.baseband_q)
  in
  Alcotest.(check bool) (Printf.sprintf "receiver SNR > 35 dB (got %.1f)" snr) true (snr > 35.0)

let test_receiver_slice () =
  let sliced = Rfchain.Receiver.slice_to_bit [| 0.3; -0.2; 0.0; -1.5 |] in
  Alcotest.(check (list (float 1e-9))) "slicing" [ 1.; -1.; 1.; -1. ] (Array.to_list sliced)

let test_receiver_deterministic () =
  let run () =
    let rx = Rfchain.Receiver.create (chip ()) std in
    let cfg = Rfchain.Config.nominal in
    let fs = Rfchain.Receiver.fs rx in
    let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 4096 in
    (Rfchain.Receiver.run rx ~analog:cfg ~input ()).Rfchain.Receiver.mod_output
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_decimator_all_ratios () =
  List.iter
    (fun select ->
      let c = { Rfchain.Decimator.ratio_select = select; compensator = true } in
      let r = Rfchain.Decimator.ratio c in
      Alcotest.(check int) "ratio table" (16 lsl select) r;
      let y = Rfchain.Decimator.decimate c (Array.make (r * 64) 1.0) in
      Alcotest.(check int) "output length" 64 (Array.length y);
      Alcotest.(check (float 1e-6)) "unity DC gain" 1.0 y.(32))
    [ 0; 1; 2; 3 ]

let counter name =
  match Telemetry.Counter.find name with
  | Some c -> Telemetry.Counter.value c
  | None -> 0

(* Degenerate records are refused by name before any work: no run is
   counted and the modulator takes no step. *)
let test_receiver_degenerate_records () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let analog = Rfchain.Config.nominal in
  let fs = Rfchain.Receiver.fs rx in
  let stimulus = Sigkit.Waveform.dbm_tone ~p_dbm:(-25.0) ~freq:3.02e9 ~fs () in
  let runs0 = counter "receiver.runs" and steps0 = counter "sdm.steps" in
  let refused who what f =
    Alcotest.check_raises (who ^ ": " ^ what) (Invalid_argument (who ^ ": " ^ what)) (fun () ->
        ignore (f ()))
  in
  let positive = "record length must be positive" and settle = "settle must be non-negative" in
  refused "Receiver.run" positive (fun () -> Rfchain.Receiver.run rx ~analog ~input:[||] ());
  refused "Receiver.run" settle (fun () ->
      Rfchain.Receiver.run rx ~analog ~settle:(-5) ~input:(Sigkit.Waveform.render stimulus 64) ());
  refused "Receiver.run_stimulus" positive (fun () ->
      Rfchain.Receiver.run_stimulus rx ~analog ~stimulus ~n:0 ());
  refused "Receiver.run_stimulus" settle (fun () ->
      Rfchain.Receiver.run_stimulus rx ~analog ~settle:(-5) ~stimulus ~n:64 ());
  Alcotest.(check int) "no run counted" runs0 (counter "receiver.runs");
  Alcotest.(check int) "no modulator step taken" steps0 (counter "sdm.steps")

(* ------------------------------------------------------ Front-end memo *)

let same_result (a : Rfchain.Receiver.result) (b : Rfchain.Receiver.result) =
  let same x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) x y
  in
  same a.Rfchain.Receiver.mod_output b.Rfchain.Receiver.mod_output
  && same a.Rfchain.Receiver.baseband_i b.Rfchain.Receiver.baseband_i
  && same a.Rfchain.Receiver.baseband_q b.Rfchain.Receiver.baseband_q

(* Receivers whose front halves must never be confused: two dies, an
   aged copy of the first (same seed, different identity), a fabric
   that applies another gain code than the word asks for, and an
   [rf_fault] hook that bypasses the memo. *)
let front_receivers =
  lazy
    (let d1 = chip ~seed:11 () and d2 = chip ~seed:12 () in
     let aged = Circuit.Process.age d1 ~hours:1000.0 in
     let mirror cfg = { cfg with Rfchain.Config.vglna_gain = 15 - cfg.Rfchain.Config.vglna_gain } in
     let rf_fault x = Array.mapi (fun i v -> v +. (0.002 *. float_of_int (i land 7))) x in
     [|
       ("die 11", Rfchain.Receiver.create d1 std);
       ("die 12", Rfchain.Receiver.create d2 std);
       ("die 11 aged", Rfchain.Receiver.create aged std);
       ("die 11 mirrored gain", Rfchain.Receiver.create ~fabric:mirror d1 std);
       ("die 11 rf fault", Rfchain.Receiver.create ~rf_fault d1 std);
     |])

(* (n, settle): an odd length with the settle a multiple of it and with
   a settle longer than it, and the measurement length both ways. *)
let front_shapes = [| (1537, 3074); (1537, 2000); (8192, 8192); (8192, 1024) |]

let front_stimulus ~fs ~n stim =
  let freq = Sigkit.Waveform.coherent_frequency ~freq:3.02e9 ~fs ~n in
  match stim with
  | 0 -> Sigkit.Waveform.dbm_tone ~p_dbm:(-25.0) ~freq ~fs ()
  | 1 -> Sigkit.Waveform.dbm_tone ~p_dbm:(-31.0) ~freq ~fs ()
  | _ -> Sigkit.Waveform.dbm_two_tone ~p_dbm:(-25.0) ~f1:3.01e9 ~f2:3.03e9 ~fs

type front_step =
  | Measure of { rx : int; stim : int; shape : int; code : int }
  | Plain of { rx : int; shape : int; code : int }  (* [run ~input] on a foreign record *)

(* A seeded walk over the case space: each step repeats the last case
   or moves one coordinate, so every tag field is exercised on its own
   (die 11 swaps directly with die 12 and with its aged copy); a plain
   [run ~input] on the same slot is always followed by a repeat of the
   case it interrupted. *)
let front_walk =
  lazy
    (let rng = Random.State.make [| 17 |] in
     let swap a b rx = if rx = a then b else a in
     let rec walk acc ((rx, stim, shape, code) as cur) k =
       if k = 0 then List.rev acc
       else
         let measure (rx, stim, shape, code) = Measure { rx; stim; shape; code } in
         let step next = walk (measure next :: acc) next (k - 1) in
         match Random.State.int rng 8 with
         | 0 -> step cur
         | 1 -> step (rx, stim, shape, (code + 7) mod 16) (* a stride coprime to 16 *)
         | 2 -> step (swap 0 1 rx, stim, shape, code)
         | 3 -> step (swap 0 2 rx, stim, shape, code)
         | 4 -> step (Random.State.int rng 5, stim, shape, code)
         | 5 -> step (rx, Random.State.int rng 3, shape, code)
         | 6 -> step (rx, stim, Random.State.int rng 4, code)
         | _ ->
           let plain =
             Plain { rx = Random.State.int rng 5; shape; code = Random.State.int rng 16 }
           in
           walk (measure cur :: plain :: acc) cur (k - 1)
     in
     walk [] (0, 0, 0, 8) 240)

let test_front_memo_oracle () =
  let rxs = Lazy.force front_receivers in
  let steps = Lazy.force front_walk in
  let codes = List.filter_map (function Measure m -> Some m.code | Plain _ -> None) steps in
  List.iter
    (fun c -> if not (List.mem c codes) then Alcotest.failf "walk never measures gain code %d" c)
    (List.init 16 Fun.id);
  let analog code = { Rfchain.Config.nominal with vglna_gain = code } in
  let fs = Rfchain.Standards.fs std in
  (* Every expected result first, through the unmemoised path: it uses
     slot 6 itself, so interleaving it would only ever test misses. *)
  let oracle = Hashtbl.create 64 in
  List.iter
    (function
      | Measure { rx; stim; shape; code } when not (Hashtbl.mem oracle (rx, stim, shape, code)) ->
        let n, settle = front_shapes.(shape) in
        let input = Sigkit.Waveform.render (front_stimulus ~fs ~n stim) n in
        Hashtbl.add oracle (rx, stim, shape, code)
          (Rfchain.Receiver.run (snd rxs.(rx)) ~analog:(analog code) ~settle ~input ())
      | _ -> ())
    steps;
  let runs0 = counter "receiver.runs" and samples0 = counter "receiver.samples" in
  let runs = ref 0 and samples = ref 0 in
  List.iteri
    (fun k step ->
      match step with
      | Plain { rx; shape; code } ->
        let n, settle = front_shapes.(shape) in
        let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-40.0) ~freq:3.0e9 ~fs n in
        ignore (Rfchain.Receiver.run (snd rxs.(rx)) ~analog:(analog code) ~settle ~input ());
        incr runs;
        samples := !samples + n
      | Measure { rx; stim; shape; code } ->
        let n, settle = front_shapes.(shape) in
        let res =
          Rfchain.Receiver.run_stimulus (snd rxs.(rx)) ~analog:(analog code) ~settle
            ~stimulus:(front_stimulus ~fs ~n stim) ~n ()
        in
        incr runs;
        samples := !samples + n;
        if not (same_result (Hashtbl.find oracle (rx, stim, shape, code)) res) then
          Alcotest.failf
            "step %d (%s, stimulus %d, n=%d, settle=%d, code %d) differs from run ~input" k
            (fst rxs.(rx)) stim n settle code)
    steps;
  Alcotest.(check int) "one receiver.runs per call" (runs0 + !runs) (counter "receiver.runs");
  Alcotest.(check int) "receiver.samples counts n per call" (samples0 + !samples)
    (counter "receiver.samples")

(* A fill that raises must leave the slot untagged: a fabric that
   applies an out-of-range gain code makes the VGLNA raise after the
   stimulus is rendered, on every call and on both paths alike. *)
let test_front_memo_failed_fill () =
  let d = chip ~seed:11 () in
  let out_of_range c = { c with Rfchain.Config.vglna_gain = 16 } in
  let bad = Rfchain.Receiver.create ~fabric:out_of_range d std in
  let good = Rfchain.Receiver.create d std in
  let fs = Rfchain.Standards.fs std and n = 1537 in
  let stimulus = front_stimulus ~fs ~n 0 in
  let analog = Rfchain.Config.nominal in
  let raises what f =
    Alcotest.check_raises what (Invalid_argument "Vglna: gain code out of range") (fun () ->
        ignore (f ()))
  in
  raises "reference path" (fun () ->
      Rfchain.Receiver.run bad ~analog ~input:(Sigkit.Waveform.render stimulus n) ());
  raises "first memoised call" (fun () ->
      Rfchain.Receiver.run_stimulus bad ~analog ~stimulus ~n ());
  raises "repeated memoised call" (fun () ->
      Rfchain.Receiver.run_stimulus bad ~analog ~stimulus ~n ());
  Alcotest.(check bool) "a healthy call afterwards is exact" true
    (same_result
       (Rfchain.Receiver.run good ~analog ~input:(Sigkit.Waveform.render stimulus n) ())
       (Rfchain.Receiver.run_stimulus good ~analog ~stimulus ~n ()))

(* ------------------------------------------------------ Workspace arena *)

(* The allocating chain, composed from the public per-stage wrappers
   exactly as [Receiver.run] was written before the arena refactor.
   Comparing it against [Receiver.run] is both the bit-identity check
   for every into-style variant and the aliasing guard: if two live
   stages shared a workspace slot, the arena chain's output would
   diverge from this one. *)
let reference_chain rx ~analog ?(digital = Rfchain.Decimator.default_config) ?(settle = 1024)
    ?(slice = true) ~input () =
  let applied = Rfchain.Receiver.applied_config rx analog in
  let n = Array.length input in
  let extended = Array.make (settle + n) 0.0 in
  for i = 0 to settle + n - 1 do
    extended.(i) <- input.((i + n - (settle mod n)) mod n)
  done;
  let extended =
    match Rfchain.Receiver.rf_fault rx with
    | None -> extended
    | Some f -> f extended
  in
  let vglna =
    Rfchain.Vglna.create (Rfchain.Receiver.chip rx) ~fs:(Rfchain.Receiver.fs rx)
  in
  let amplified = Rfchain.Vglna.run vglna ~code:applied.Rfchain.Config.vglna_gain extended in
  (* [sdm_of_config] applies the fabric hook itself, so pass the raw word. *)
  let sdm = Rfchain.Receiver.sdm_of_config rx analog in
  let mod_full = Rfchain.Sdm.run sdm amplified in
  let mod_output = Array.sub mod_full settle n in
  let bits = if slice then Rfchain.Receiver.slice_to_bit mod_output else mod_output in
  let i_ch, q_ch = Rfchain.Mixer.downconvert bits in
  let baseband_i, baseband_q = Rfchain.Decimator.run_iq digital (i_ch, q_ch) in
  (mod_output, baseband_i, baseband_q)

let arena_case_gen =
  QCheck.Gen.(
    let* seed = int_range 1 5000 in
    let* coarse = int_range 0 255 in
    let* gain = int_range 0 15 in
    let* gm_q = int_range 0 40 in
    let* slice = bool in
    let* fault = int_range 0 2 in
    return (seed, coarse, gain, gm_q, slice, fault))

let prop_arena_chain_identity =
  QCheck.Test.make ~name:"arena-backed Receiver.run equals the allocating stage chain"
    ~count:12
    (QCheck.make arena_case_gen ~print:(fun (s, c, g, q, sl, f) ->
         Printf.sprintf "seed=%d coarse=%d gain=%d gm_q=%d slice=%b fault=%d" s c g q sl f))
    (fun (seed, coarse, gain, gm_q, slice, fault) ->
      let rf_fault input =
        (* Deterministic burst-like perturbation, fresh output array —
           the contract inject.ml's hooks follow. *)
        Array.mapi (fun i x -> x +. (0.002 *. float_of_int (i land 7))) input
      in
      let fabric cfg =
        Rfchain.Config.of_bits (Int64.logxor (Rfchain.Config.to_bits cfg) 0x110L)
      in
      let c = chip ~seed () in
      let rx =
        match fault with
        | 0 -> Rfchain.Receiver.create c std
        | 1 -> Rfchain.Receiver.create ~rf_fault c std
        | _ -> Rfchain.Receiver.create ~fabric c std
      in
      let analog =
        { Rfchain.Config.nominal with cap_coarse = coarse; vglna_gain = gain; gm_q }
      in
      let fs = Rfchain.Receiver.fs rx in
      let n = 1024 and settle = 256 in
      let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
      let res = Rfchain.Receiver.run rx ~analog ~settle ~slice ~input () in
      let m, bi, bq = reference_chain rx ~analog ~settle ~slice ~input () in
      res.Rfchain.Receiver.mod_output = m
      && res.Rfchain.Receiver.baseband_i = bi
      && res.Rfchain.Receiver.baseband_q = bq)

let test_arena_slots_distinct () =
  (* The chain's documented slot map (DESIGN §15): every stage that is
     live at the same time must hold a physically distinct scratch
     array, including the slots whose lengths coincide. *)
  let n = 1024 and settle = 256 in
  let total = settle + n in
  let ws = Sigkit.Workspace.get () in
  let live =
    [
      ("extended (6)", Sigkit.Workspace.arr ws ~slot:6 ~len:total);
      ("mod_full (7)", Sigkit.Workspace.arr ws ~slot:7 ~len:total);
      ("sdm comp noise (8)", Sigkit.Workspace.arr ws ~slot:8 ~len:total);
      ("sdm input noise (9)", Sigkit.Workspace.arr ws ~slot:9 ~len:total);
      ("mixer i (10)", Sigkit.Workspace.arr ws ~slot:10 ~len:n);
      ("mixer q (11)", Sigkit.Workspace.arr ws ~slot:11 ~len:n);
      ("vglna noise (13)", Sigkit.Workspace.arr ws ~slot:13 ~len:total);
      ("two-tone front (14)", Sigkit.Workspace.arr ws ~slot:14 ~len:total);
    ]
  in
  List.iteri
    (fun i (ni, a) ->
      List.iteri
        (fun j (nj, b) ->
          if i < j && a == b then Alcotest.failf "slots alias: %s and %s" ni nj)
        live)
    live

let test_arena_reuse_across_evals () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let analog = Rfchain.Config.nominal in
  let fs = Rfchain.Receiver.fs rx in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs 1024 in
  let eval () = ignore (Rfchain.Receiver.run rx ~analog ~input ()) in
  (* Two warm-up evals materialise every (slot, len) pair this chain
     needs; after that the arena must stop growing. *)
  eval ();
  eval ();
  let before = Sigkit.Workspace.allocations () in
  for _ = 1 to 4 do
    eval ()
  done;
  Alcotest.(check int) "no new scratch arrays across steady-state evals" before
    (Sigkit.Workspace.allocations ());
  (* And the steady-state eval must stay within the minor-words budget
     the bench gate enforces (~10k today; generous headroom here). *)
  let w0 = Gc.minor_words () in
  eval ();
  let dw = Gc.minor_words () -. w0 in
  if dw > 100_000.0 then Alcotest.failf "steady-state eval allocates %.0f minor words" dw

(* ------------------------------------------------------------ Properties *)

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config codec is a bijection on int64" ~count:500 QCheck.int64
    (fun bits -> Rfchain.Config.to_bits (Rfchain.Config.of_bits bits) = bits)

let prop_config_with_field =
  QCheck.Test.make ~name:"with_field/field roundtrip" ~count:200
    QCheck.(pair (int_range 0 15) small_int)
    (fun (field_idx, v) ->
      let name = List.nth Rfchain.Config.field_names field_idx in
      let width = Rfchain.Config.field_width name in
      let v = v land ((1 lsl width) - 1) in
      let c = Rfchain.Config.with_field Rfchain.Config.nominal name v in
      Rfchain.Config.field c name = v)

let prop_mixer_energy =
  QCheck.Test.make ~name:"mixer conserves sample energy" ~count:50
    QCheck.(list_of_size (Gen.return 64) (float_range (-2.) 2.))
    (fun xs ->
      let x = Array.of_list xs in
      let i_ch, q_ch = Rfchain.Mixer.downconvert x in
      let e a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a in
      Float.abs (e x -. (e i_ch +. e q_ch)) < 1e-9)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rfchain"
    [
      ( "standards",
        [
          Alcotest.test_case "fs and band" `Quick test_standards_fs;
          Alcotest.test_case "lookup" `Quick test_standards_lookup;
        ] );
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip_nominal;
          Alcotest.test_case "field access" `Quick test_config_field_access;
          Alcotest.test_case "64-bit coverage" `Quick test_config_widths_cover_64;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "hamming" `Quick test_config_hamming;
        ] );
      ( "vglna",
        [
          Alcotest.test_case "gain table" `Quick test_vglna_gain_table;
          Alcotest.test_case "segments" `Quick test_vglna_segments;
          Alcotest.test_case "amplifies" `Quick test_vglna_amplifies;
          Alcotest.test_case "NF/IIP3 trends" `Quick test_vglna_nf_trend;
          Alcotest.test_case "code range" `Quick test_vglna_code_range;
        ] );
      ( "sdm",
        [
          Alcotest.test_case "tank monotone in caps" `Quick test_sdm_tank_monotone_in_caps;
          Alcotest.test_case "tuning range" `Quick test_sdm_tuning_range;
          Alcotest.test_case "oscillation threshold" `Quick test_sdm_oscillation_threshold;
          Alcotest.test_case "bitstream output" `Quick test_sdm_bitstream_output;
          Alcotest.test_case "noise shaping" `Slow test_sdm_noise_shaping;
          Alcotest.test_case "buffer mode analog" `Quick test_sdm_buffer_mode_analog;
          Alcotest.test_case "gmin disable" `Quick test_sdm_gmin_disable;
          Alcotest.test_case "oscillation matches tank" `Quick test_sdm_osc_matches_tank;
          Alcotest.test_case "oracle: 16 mode combinations" `Quick test_sdm_oracle_modes;
        ]
        @ qcheck [ prop_sdm_oracle_random_words ] );
      ( "mixer",
        [
          Alcotest.test_case "translation" `Quick test_mixer_translates;
          Alcotest.test_case "quadrature sequences" `Quick test_mixer_quadrature;
        ] );
      ( "decimator",
        [
          Alcotest.test_case "3-bit codec" `Quick test_decimator_bits;
          Alcotest.test_case "DC gain" `Quick test_decimator_dc_gain;
          Alcotest.test_case "all ratios" `Quick test_decimator_all_ratios;
          Alcotest.test_case "passband" `Quick test_decimator_passband;
          Alcotest.test_case "stopband" `Quick test_decimator_stopband;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "end to end" `Slow test_receiver_end_to_end;
          Alcotest.test_case "slicer" `Quick test_receiver_slice;
          Alcotest.test_case "deterministic" `Quick test_receiver_deterministic;
          Alcotest.test_case "degenerate records refused up front" `Quick
            test_receiver_degenerate_records;
          Alcotest.test_case "memoised front half equals run ~input" `Quick
            test_front_memo_oracle;
          Alcotest.test_case "a failed front-half fill is never reused" `Quick
            test_front_memo_failed_fill;
        ] );
      ( "arena",
        Alcotest.test_case "slot map is alias-free" `Quick test_arena_slots_distinct
        :: Alcotest.test_case "scratch reuse across evals" `Quick test_arena_reuse_across_evals
        :: qcheck [ prop_arena_chain_identity ] );
      ("properties", qcheck [ prop_config_roundtrip; prop_config_with_field; prop_mixer_energy ]);
    ]
