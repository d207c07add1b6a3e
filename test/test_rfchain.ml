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

(* The VGLNA draws its noise in modulator-sized blocks.  Over a record
   of several blocks, ending inside one, it must equal the stage
   composed from the circuit modules, every noise sample drawn per
   sample from one stream. *)
let test_vglna_block_noise () =
  let c = chip () and fs = 12e9 and code = 8 in
  let lna = Rfchain.Vglna.create c ~fs in
  let n = (3 * Rfchain.Sdm.block_len) + 1237 in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
  let stage =
    Circuit.Nonlinear.create
      ~gain:(Sigkit.Decibel.power_ratio_of_db (Rfchain.Vglna.gain_db lna ~code /. 2.0))
      ~iip3_dbm:(Rfchain.Vglna.iip3_dbm lna ~code) ~rail:1.4 ()
  in
  let noise =
    Circuit.Noise_source.of_noise_figure c ~name:(Printf.sprintf "vglna.noise%d" code)
      ~nf_db:(Rfchain.Vglna.noise_figure_db lna ~code) ~fs
  in
  let expected =
    Array.map (fun x -> Circuit.Nonlinear.apply stage (x +. Circuit.Noise_source.sample noise)) input
  in
  let got = Array.copy input in
  Rfchain.Vglna.run_inplace lna ~code got;
  Alcotest.(check bool) "block-wise noise equals one stream" true
    (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) expected got)

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
  let signs = Array.make n Float.nan in
  Rfchain.Sdm.stream ~signs:true sdm input (fun block p len -> Array.blit block 0 signs p len);
  bits_equal expected first && bits_equal expected again
  && Array.for_all2 (fun e s -> e >= 0.0 = (s >= 0.0)) expected signs

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

(* The buffer-mode jitter is drawn once per (die, length) into a tagged
   slot.  Repeats on one die must stay bit-identical to the first run
   (and to the oracle) whatever ran in between: the VGLNA's noise block
   in slot 7 (checked to have really been written there), the same
   length on another die (same slot, another stream) and another
   length on this die. *)
let test_sdm_jitter_memo () =
  let fs = Rfchain.Standards.fs std in
  let unclocked c =
    Rfchain.Sdm.create c ~fs { Rfchain.Config.nominal with comp_clock_enable = false }
  in
  let sdm = unclocked (chip ()) in
  let n = 2048 in
  let input = oracle_input ~fs n in
  let run sdm input =
    let out = Array.make (Array.length input) Float.nan in
    Rfchain.Sdm.run_into sdm input out;
    out
  in
  let first = run sdm input in
  if not (bits_equal (reference_sdm sdm input) first) then
    Alcotest.fail "first unclocked run differs from the oracle";
  (* The interleaved modulator runs must match the oracle too: a memo
     that ignored the stream would hand them this die's draw. *)
  let oracle_run sdm input =
    if not (bits_equal (reference_sdm sdm input) (run sdm input)) then
      Alcotest.fail "interleaved unclocked run differs from the oracle"
  in
  let vglna = Rfchain.Vglna.create (chip ()) ~fs in
  List.iter
    (fun (what, other) ->
      other ();
      if not (bits_equal first (run sdm input)) then
        Alcotest.failf "unclocked rerun after %s differs from the first run" what)
    [
      ( "a VGLNA run",
        fun () ->
          let noise = Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:7 ~len:n in
          Array.fill noise 0 n Float.nan;
          Rfchain.Vglna.run_inplace vglna ~code:9 (Array.copy input);
          if Array.exists Float.is_nan noise then
            Alcotest.fail "the VGLNA run did not draw its noise into slot 7" );
      ("a run on another die", fun () -> oracle_run (unclocked (chip ~seed:7 ())) input);
      ("a run at another length", fun () -> oracle_run sdm (oracle_input ~fs 1537));
    ]

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

let test_decimator_default () =
  let c = Rfchain.Decimator.default_config in
  Alcotest.(check int) "default ratio 64" 64 (Rfchain.Decimator.ratio c);
  Alcotest.(check bool) "compensator in the path" true c.Rfchain.Decimator.compensator

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

(* The fused kernel against the staged chain it replaces, float for
   float: every digital config, sliced or not, a random window offset
   and record lengths that are not a multiple of the CIC ratio or are
   shorter than the overall ratio (empty output).  The source mixes
   exact zeros of both signs and +-1 into random values so the slicer's
   boundary and the mixer's negations are exercised. *)
let fused_case_gen =
  QCheck.Gen.(
    let* bits = int_range 0 7 in
    let* slice = bool in
    let* pos = int_range 1 300 in
    let* periods = int_range 0 6 in
    let* rem = int_range 0 127 in
    let* seed = int in
    return (bits, slice, pos, periods, rem, seed))

let prop_fused_downconvert_iq =
  QCheck.Test.make ~name:"Decimator.downconvert_iq equals Mixer.downconvert_into + run_iq"
    ~count:200
    (QCheck.make fused_case_gen ~print:(fun (b, sl, p, k, r, seed) ->
         Printf.sprintf "bits=%d slice=%b pos=%d periods=%d rem=%d seed=%d" b sl p k r seed))
    (fun (bits, slice, pos, periods, rem, seed) ->
      let c = { Rfchain.Decimator.ratio_select = bits land 3; compensator = bits land 4 <> 0 } in
      let ratio = Rfchain.Decimator.ratio c in
      let n = (periods * ratio) + (rem mod ratio) in
      let st = Random.State.make [| seed |] in
      let src =
        Array.init (pos + n + 5) (fun _ ->
            match Random.State.int st 8 with
            | 0 -> 0.0
            | 1 -> -0.0
            | 2 -> 1.0
            | 3 -> -1.0
            | _ -> Random.State.float st 4.0 -. 2.0)
      in
      let i_ch = Array.make n Float.nan and q_ch = Array.make n Float.nan in
      Rfchain.Mixer.downconvert_into ~slice src ~pos ~n ~i_out:i_ch ~q_out:q_ch;
      let ri, rq = Rfchain.Decimator.run_iq c (i_ch, q_ch) in
      let fi, fq = Rfchain.Decimator.downconvert_iq ~slice c src ~pos ~n in
      (* The same window fed in random pieces, cut anywhere. *)
      let s = Rfchain.Decimator.iq ~slice c ~n in
      let k = ref 0 in
      while !k < n do
        let len = min (n - !k) (Random.State.int st 70) in
        Rfchain.Decimator.feed s src ~pos:(pos + !k) ~len;
        k := !k + len
      done;
      let pi, pq = Rfchain.Decimator.finish s in
      bits_equal ri fi && bits_equal rq fq && bits_equal ri pi && bits_equal rq pq)

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
  refused "Receiver.capture_modulator" positive (fun () ->
      Rfchain.Receiver.capture_modulator rx ~analog ~stimulus ~n:0 ());
  refused "Receiver.capture_modulator" settle (fun () ->
      Rfchain.Receiver.capture_modulator rx ~analog ~settle:(-5) ~stimulus ~n:64 ());
  refused "Receiver.capture_baseband" positive (fun () ->
      Rfchain.Receiver.capture_baseband rx ~analog ~stimulus ~n:0 ());
  refused "Receiver.capture_baseband" settle (fun () ->
      Rfchain.Receiver.capture_baseband rx ~analog ~settle:(-5) ~stimulus ~n:64 ());
  Alcotest.(check int) "no run counted" runs0 (counter "receiver.runs");
  Alcotest.(check int) "no modulator step taken" steps0 (counter "sdm.steps")

(* ------------------------------------------------------ Front-end memo *)

(* Both taps of one stimulus capture, the modulator's first or second:
   (modulator record, (baseband I, baseband Q)). *)
let capture_both ~modulator_first rx ~analog ?settle ~stimulus ~n () =
  let m () = Rfchain.Receiver.capture_modulator rx ~analog ?settle ~stimulus ~n () in
  let b () = Rfchain.Receiver.capture_baseband rx ~analog ?settle ~stimulus ~n () in
  if modulator_first then
    let m = m () in
    (m, b ())
  else
    let b = b () in
    (m (), b)

(* Whether both taps equal the matching fields of a [run ~input]. *)
let same_result (a : Rfchain.Receiver.result) (m, (i, q)) =
  bits_equal a.Rfchain.Receiver.mod_output m
  && bits_equal a.Rfchain.Receiver.baseband_i i
  && bits_equal a.Rfchain.Receiver.baseband_q q

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
          capture_both ~modulator_first:(k land 1 = 0) (snd rxs.(rx)) ~analog:(analog code)
            ~settle ~stimulus:(front_stimulus ~fs ~n stim) ~n ()
        in
        runs := !runs + 2;
        samples := !samples + (2 * n);
        if not (same_result (Hashtbl.find oracle (rx, stim, shape, code)) res) then
          Alcotest.failf
            "step %d (%s, stimulus %d, n=%d, settle=%d, code %d) differs from run ~input" k
            (fst rxs.(rx)) stim n settle code)
    steps;
  Alcotest.(check int) "one receiver.runs per capture" (runs0 + !runs) (counter "receiver.runs");
  Alcotest.(check int) "receiver.samples counts n per capture" (samples0 + !samples)
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
      Rfchain.Receiver.capture_modulator bad ~analog ~stimulus ~n ());
  raises "repeated memoised call" (fun () ->
      Rfchain.Receiver.capture_baseband bad ~analog ~stimulus ~n ());
  raises "repeated memoised call, other tap" (fun () ->
      Rfchain.Receiver.capture_modulator bad ~analog ~stimulus ~n ());
  Alcotest.(check bool) "a healthy call afterwards is exact" true
    (same_result
       (Rfchain.Receiver.run good ~analog ~input:(Sigkit.Waveform.render stimulus n) ())
       (capture_both ~modulator_first:false good ~analog ~stimulus ~n ()))

(* -------------------------------------------------------- ΣΔ drive memo *)

(* A probe tag: the test's own marker for "nothing held". *)
type Sigkit.Workspace.tag += Nothing_held

(* What slot 13 holds at [len], read without disturbing it: [Some]
   copy of the array while it carries any tag but the probe's, [None]
   otherwise (the slot is then left tagged with the probe, which no
   tone or drive lookup takes for its own).  [tagged] keeps the
   remembered drive request, so the probe does not reset admission. *)
let held_slot13 ~len =
  let held = ref true in
  let a =
    Sigkit.Workspace.tagged (Sigkit.Workspace.get ()) ~slot:13 ~len
      ~same:(fun h _ -> match h with Nothing_held -> false | _ -> true)
      Nothing_held
      (fun _ -> held := false)
  in
  if !held then Some (Array.copy a) else None

type drive_case = {
  drx : int;
  dcode : int;
  dbias : int;
  dgmin : bool;
  dtwo : bool;
  dsplit : int;
}

(* What the model says slot 13 holds: the test tone of one (n, settle)
   split, or the drive of one (receiver, code, bias, split). *)
type slot13 = Empty | Tone of int | Drive of (int * int * int * int)

(* Slot 13 is the single-tone input chain's one long slot: a capture's
   front half takes its settle-extended test tone from there (rendered
   there on a miss), and the ΣΔ keeps a Gmin-on drive there only on
   the second consecutive request for it, or when the slot already
   holds it.  A seeded walk moves one coordinate per step over two
   dice, an [rf_fault] receiver, two gain codes, two bias codes, Gmin
   on/off, single- vs two-tone fronts and two splits of one settle + n
   (so every tone, drive and two-tone front of the walk lands on the
   same length).  Every result must equal the unmemoised [run ~input]
   bit for bit.  After every capture slot 13 must hold exactly what a
   model of the slot predicts: a single-tone capture leaves its tone
   or an admitted drive, a two-tone capture leaves it unchanged, and a
   drive, when held, is the one first admitted for its case. *)
let test_drive_memo_oracle () =
  let d1 = chip ~seed:11 () and d2 = chip ~seed:12 () in
  let rf_fault x = Array.mapi (fun i v -> v +. (0.002 *. float_of_int (i land 7))) x in
  let rxs =
    [|
      Rfchain.Receiver.create d1 std;
      Rfchain.Receiver.create d2 std;
      Rfchain.Receiver.create ~rf_fault d1 std;
    |]
  in
  let codes = [| 4; 11 |] and biases = [| 20; 44 |] in
  let splits = [| (1537, 512); (1025, 1024) |] in
  let len = 2049 in
  let fs = Rfchain.Standards.fs std in
  (* One tone for both splits: only the split tells their records apart. *)
  let stimulus two = front_stimulus ~fs ~n:1537 (if two then 2 else 0) in
  let analog c =
    {
      Rfchain.Config.nominal with
      vglna_gain = codes.(c.dcode);
      gmin_bias = biases.(c.dbias);
      gmin_enable = c.dgmin;
    }
  in
  let oracle = Hashtbl.create 64 in
  let expected c =
    match Hashtbl.find_opt oracle c with
    | Some r -> r
    | None ->
      let n, settle = splits.(c.dsplit) in
      let input = Sigkit.Waveform.render (stimulus c.dtwo) n in
      let r = Rfchain.Receiver.run rxs.(c.drx) ~analog:(analog c) ~settle ~input () in
      Hashtbl.add oracle c r;
      r
  in
  let tones =
    Array.map
      (fun (n, settle) ->
        let a = Array.make len 0.0 in
        Sigkit.Waveform.render_into (stimulus false) ~n ~rot:((n - (settle mod n)) mod n) a;
        a)
      splits
  in
  let rng = Random.State.make [| 23 |] in
  let move c =
    match Random.State.int rng 7 with
    | 0 -> c
    | 1 -> { c with drx = (c.drx + 1 + Random.State.int rng 2) mod 3 }
    | 2 -> { c with dcode = 1 - c.dcode }
    | 3 -> { c with dbias = 1 - c.dbias }
    | 4 -> { c with dgmin = not c.dgmin }
    | 5 -> { c with dtwo = not c.dtwo }
    | _ -> { c with dsplit = 1 - c.dsplit }
  in
  let cur = ref { drx = 0; dcode = 0; dbias = 0; dgmin = true; dtwo = false; dsplit = 0 } in
  let cases =
    List.init 240 (fun _ ->
        let c = !cur in
        cur := move c;
        c)
  in
  List.iter (fun c -> ignore (expected c)) cases;
  (* [Receiver.run] left slot 6 untagged; clear slot 13 and its
     remembered request. *)
  ignore (Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:13 ~len);
  let model = ref Empty and asked = ref None and front6 = ref None in
  let drives = Hashtbl.create 16 in
  let admitted = ref 0 and reused = ref 0 and found_tone = ref 0 in
  (* The model's step for one capture of [c]. *)
  let capture_model c =
    if not c.dtwo then
      if c.drx = 2 then begin
        model := Tone c.dsplit;
        front6 := None
      end
      else begin
        let front = (c.drx, c.dcode, c.dsplit) in
        if !front6 <> Some front then begin
          if !model = Tone c.dsplit then incr found_tone;
          model := Tone c.dsplit;
          front6 := Some front
        end;
        if c.dgmin then begin
          let d = (c.drx, c.dcode, c.dbias, c.dsplit) in
          let again = !asked = Some d in
          asked := Some d;
          if !model = Drive d then incr reused
          else if again then begin
            incr admitted;
            model := Drive d
          end
        end
      end
  in
  let check what before =
    let got = held_slot13 ~len in
    match !model, got with
    | Empty, None -> ()
    | Tone k, Some a when bits_equal a tones.(k) -> ()
    | Drive d, Some a -> (
      if Array.exists (bits_equal a) tones then Alcotest.failf "%s holds a tone, not a drive" what;
      match Hashtbl.find_opt drives d with
      | None -> Hashtbl.add drives d a
      | Some first ->
        if not (bits_equal first a) then Alcotest.failf "%s holds another drive" what)
    | _, _ ->
      if Option.equal bits_equal before got then Alcotest.failf "%s left slot 13 as it was" what
      else Alcotest.failf "%s left slot 13 holding something else" what
  in
  List.iteri
    (fun k c ->
      let n, settle = splits.(c.dsplit) in
      let what tap =
        Printf.sprintf "step %d %s (receiver %d, code %d, bias %d, gmin %b, two-tone %b, n=%d)" k
          tap c.drx codes.(c.dcode) biases.(c.dbias) c.dgmin c.dtwo n
      in
      let step tap capture () =
        let before = held_slot13 ~len in
        let r = capture () in
        capture_model c;
        check (what tap) before;
        if c.dtwo && not (Option.equal bits_equal before (held_slot13 ~len)) then
          Alcotest.failf "%s changed slot 13" (what tap);
        r
      in
      let rx = rxs.(c.drx) and analog = analog c and stimulus = stimulus c.dtwo in
      let m =
        step "modulator" (fun () ->
            Rfchain.Receiver.capture_modulator rx ~analog ~settle ~stimulus ~n ())
      in
      let b =
        step "baseband" (fun () ->
            Rfchain.Receiver.capture_baseband rx ~analog ~settle ~stimulus ~n ())
      in
      let res =
        if k land 1 = 0 then
          let m = m () in
          (m, b ())
        else
          let b = b () in
          (m (), b)
      in
      if not (same_result (expected c) res) then
        Alcotest.failf "%s differs from run ~input" (what "capture"))
    cases;
  if !admitted = 0 then Alcotest.fail "the walk never admitted a drive";
  if !reused = 0 then Alcotest.fail "the walk never reused a held drive";
  if !found_tone = 0 then Alcotest.fail "no front miss of the walk found its tone"

(* ------------------------------------------------------------ Captures *)

(* One capture of a random interleaving: which word, die, stimulus and
   tap. *)
type capture_step = { cword : int; cdie : int; cstim : int; cmod : bool }

(* (n, settle) of a record: a settle up to 5000 and a record of up to
   four modulator blocks, so blocks, mixer periods and CIC groups fall
   anywhere in the window. *)
let record_shape_gen = QCheck.Gen.(pair (int_range 1 13_000) (int_range 0 5000))

let capture_case_gen =
  QCheck.Gen.(
    let word =
      let* bits = ui64 in
      let* clocked = bool in
      let* buffer = bool in
      return
        {
          (Rfchain.Config.of_bits bits) with
          Rfchain.Config.comp_clock_enable = clocked;
          cal_buffer_enable = buffer;
        }
    in
    let step =
      let* cword = int_range 0 2 in
      let* cdie = int_range 0 1 in
      let* cstim = int_range 0 2 in
      let* cmod = bool in
      return { cword; cdie; cstim; cmod }
    in
    triple (array_repeat 3 word) (list_repeat 10 step) record_shape_gen)

(* Each capture, in a random interleaving of words (clocked and
   unclocked comparators, the calibration buffer on and off), two dice,
   single- and two-tone stimuli and both taps on one domain, must equal
   the matching field of [run ~input] on the rendered stimulus. *)
let prop_captures_equal_run =
  QCheck.Test.make ~name:"stimulus captures equal run ~input on random words" ~count:25
    (QCheck.make capture_case_gen ~print:(fun (words, steps, (n, settle)) ->
         Printf.sprintf "n %d settle %d: " n settle
         ^ String.concat "; "
           (List.map
              (fun c ->
                Printf.sprintf "word %Lx die %d stim %d %s"
                  (Rfchain.Config.to_bits words.(c.cword))
                  c.cdie c.cstim
                  (if c.cmod then "mod" else "baseband"))
              steps)))
    (fun (words, steps, (n, settle)) ->
      let rxs =
        [| Rfchain.Receiver.create (chip ~seed:11 ()) std;
           Rfchain.Receiver.create (chip ~seed:12 ()) std |]
      in
      let fs = Rfchain.Standards.fs std in
      let oracle = Hashtbl.create 16 in
      let expected c =
        let key = (c.cword, c.cdie, c.cstim) in
        match Hashtbl.find_opt oracle key with
        | Some r -> r
        | None ->
          let input = Sigkit.Waveform.render (front_stimulus ~fs ~n c.cstim) n in
          let r = Rfchain.Receiver.run rxs.(c.cdie) ~analog:words.(c.cword) ~settle ~input () in
          Hashtbl.add oracle key r;
          r
      in
      (* Every expected result first: [run] clears the front slots'
         tags, so interleaving it would only ever test misses. *)
      List.iter (fun c -> ignore (expected c)) steps;
      List.for_all
        (fun c ->
          let rx = rxs.(c.cdie) and analog = words.(c.cword) in
          let stimulus = front_stimulus ~fs ~n c.cstim in
          let r = expected c in
          if c.cmod then
            bits_equal r.Rfchain.Receiver.mod_output
              (Rfchain.Receiver.capture_modulator rx ~analog ~settle ~stimulus ~n ())
          else
            let i, q = Rfchain.Receiver.capture_baseband rx ~analog ~settle ~stimulus ~n () in
            bits_equal r.Rfchain.Receiver.baseband_i i && bits_equal r.Rfchain.Receiver.baseband_q q)
        steps)

(* The baseband capture skips the calibration buffer because the
   decimator reads only [x >= 0.0].  For every [out_buffer] code and
   the edge values of that sign argument, the guarded value must slice
   as the buffered one; inside the guard band (-1e-300, 0), where the
   buffer could round to -0.0, it must be the buffered value itself,
   and outside it the loop output itself. *)
let test_buffer_sign_guard () =
  let fs = Rfchain.Standards.fs std in
  let values = [ 0.0; -0.0; 4.9e-324; -4.9e-324; 1e-310; -1e-310; 1.0; -1.0; Float.nan ] in
  let bits = Int64.bits_of_float in
  for code = 0 to 3 do
    let cfg = { Rfchain.Config.nominal with cal_buffer_enable = true; out_buffer = code } in
    let sdm = Rfchain.Sdm.create (chip ()) ~fs cfg in
    let bgain = sdm.Rfchain.Sdm.buffer_gain in
    List.iter
      (fun v ->
        let buffered = 1.2 *. tanh (bgain *. v /. 1.2) in
        let guarded = Rfchain.Sdm.buffer_sign sdm v in
        if guarded >= 0.0 <> (buffered >= 0.0) then
          Alcotest.failf "out_buffer %d, v = %h: guarded %h slices unlike buffered %h" code v
            guarded buffered;
        let want = if v < 0.0 && v > -1e-300 then buffered else v in
        if not (Int64.equal (bits guarded) (bits want)) then
          Alcotest.failf "out_buffer %d, v = %h: guarded %h, want %h" code v guarded want)
      values
  done

(* A long baseband capture copies no full-rate record: after a warm-up
   capture has made every workspace slot, one 131 072-sample capture
   allocates far less than one record in the major heap. *)
let test_baseband_capture_allocation () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let n = 131_072 in
  let freq = Rfchain.Receiver.test_tone_frequency rx ~n in
  let stimulus = Sigkit.Waveform.dbm_tone ~p_dbm:(-25.0) ~freq ~fs:(Rfchain.Receiver.fs rx) () in
  let capture () =
    ignore (Rfchain.Receiver.capture_baseband rx ~analog:Rfchain.Config.nominal ~stimulus ~n ())
  in
  capture ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  capture ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  if words >= float_of_int n /. 4.0 then
    Alcotest.failf "a warm %d-sample baseband capture allocated %.0f major words" n words

(* The back half streams in modulator blocks.  A long capture of either
   tap polls for cancellation once per block and leaves no record-long
   array in slot 7; and the modulator polls at the start of each block,
   at samples 0, 4096, ..., before it hands the block on. *)
let test_capture_streams_blocks () =
  let rx = Rfchain.Receiver.create (chip ()) std in
  let n = 131_072 and settle = 1024 in
  let block = Rfchain.Sdm.block_len in
  let fs = Rfchain.Receiver.fs rx in
  let freq = Rfchain.Receiver.test_tone_frequency rx ~n in
  let stimulus = Sigkit.Waveform.dbm_tone ~p_dbm:(-25.0) ~freq ~fs () in
  let analog = Rfchain.Config.nominal in
  List.iter
    (fun (what, capture) ->
      let polls = counter "cancel.polls" in
      capture ();
      Alcotest.(check int) (what ^ ": one poll per block")
        ((settle + n + block - 1) / block)
        (counter "cancel.polls" - polls))
    [
      ( "baseband",
        fun () -> ignore (Rfchain.Receiver.capture_baseband rx ~analog ~settle ~stimulus ~n ()) );
      ( "modulator",
        fun () -> ignore (Rfchain.Receiver.capture_modulator rx ~analog ~settle ~stimulus ~n ()) );
    ];
  let allocations = Sigkit.Workspace.allocations () in
  ignore (Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:7 ~len:(settle + n));
  Alcotest.(check int) "no record-long slot-7 array before" (allocations + 1)
    (Sigkit.Workspace.allocations ());
  let sdm = Rfchain.Receiver.sdm_of_config rx analog in
  let input = oracle_input ~fs ((3 * block) + 5) in
  let polls = counter "cancel.polls" and next = ref 0 in
  Rfchain.Sdm.stream ~signs:false sdm input (fun _ pos len ->
      if pos <> !next * block then Alcotest.failf "block at sample %d" pos;
      incr next;
      Alcotest.(check int)
        (Printf.sprintf "polls before the block at %d" pos)
        !next
        (counter "cancel.polls" - polls);
      Alcotest.(check int) "block length" (min block (Array.length input - pos)) len);
  Alcotest.(check int) "blocks" 4 !next

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
    let* shape = record_shape_gen in
    return (seed, coarse, gain, gm_q, slice, fault, shape))

let prop_arena_chain_identity =
  QCheck.Test.make ~name:"arena-backed Receiver.run equals the allocating stage chain"
    ~count:12
    (QCheck.make arena_case_gen ~print:(fun (s, c, g, q, sl, f, (n, settle)) ->
         Printf.sprintf "seed=%d coarse=%d gain=%d gm_q=%d slice=%b fault=%d n=%d settle=%d" s c
           g q sl f n settle))
    (fun (seed, coarse, gain, gm_q, slice, fault, (n, settle)) ->
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
      let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
      let res = Rfchain.Receiver.run rx ~analog ~settle ~slice ~input () in
      let m, bi, bq = reference_chain rx ~analog ~settle ~slice ~input () in
      res.Rfchain.Receiver.mod_output = m
      && res.Rfchain.Receiver.baseband_i = bi
      && res.Rfchain.Receiver.baseband_q = bq)

let test_arena_slots_distinct () =
  (* The chain's documented slot map (DESIGN §15): every stage that is
     live at the same time must hold a physically distinct scratch
     array, including the slots whose lengths coincide.  Slot 7 is the
     block buffer, of the modulator's block length or the record's if
     shorter: the VGLNA's noise blocks, then the modulator's output
     blocks.  Slots 0-1 are owned by no stage. *)
  let n = 1024 and settle = 256 in
  let total = settle + n in
  let cic = n / (Rfchain.Decimator.ratio Rfchain.Decimator.default_config / 2) in
  let ws = Sigkit.Workspace.get () in
  let live =
    [
      ("extended (6)", Sigkit.Workspace.arr ws ~slot:6 ~len:total);
      ("block (7)", Sigkit.Workspace.arr ws ~slot:7 ~len:(min Rfchain.Sdm.block_len total));
      ("sdm comp noise (8)", Sigkit.Workspace.arr ws ~slot:8 ~len:total);
      ("sdm input noise (9)", Sigkit.Workspace.arr ws ~slot:9 ~len:total);
      ("sdm jitter (10)", Sigkit.Workspace.arr ws ~slot:10 ~len:total);
      ("cic q (11)", Sigkit.Workspace.arr ws ~slot:11 ~len:cic);
      ("cic i (12)", Sigkit.Workspace.arr ws ~slot:12 ~len:cic);
      ("tagged tone or sdm drive (13)", Sigkit.Workspace.arr ws ~slot:13 ~len:total);
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
  let n = 1024 in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:3.02e9 ~fs n in
  let eval () = ignore (Rfchain.Receiver.run rx ~analog ~input ()) in
  (* The memoised path, with the drive kept (Gmin on: admitted on the
     second capture) and computed in place (Gmin off), each at another
     gain code so every front half and drive is a miss. *)
  let stimulus = Sigkit.Waveform.dbm_tone ~p_dbm:(-25.0) ~freq:3.02e9 ~fs () in
  let code = ref 0 in
  let eval_stimulus gmin_enable =
    code := (!code + 1) mod 16;
    let analog = { analog with vglna_gain = !code; gmin_enable } in
    ignore (capture_both ~modulator_first:gmin_enable rx ~analog ~stimulus ~n ())
  in
  let evals () =
    eval ();
    eval_stimulus true;
    eval_stimulus false
  in
  (* Two warm-up rounds materialise every (slot, len) pair these paths
     need; after that the arena must stop growing. *)
  evals ();
  evals ();
  let before = Sigkit.Workspace.allocations () in
  for _ = 1 to 4 do
    evals ()
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
          Alcotest.test_case "block noise equals one stream" `Quick test_vglna_block_noise;
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
          Alcotest.test_case "jitter memo survives interleaved work" `Quick test_sdm_jitter_memo;
        ]
        @ qcheck [ prop_sdm_oracle_random_words ] );
      ( "mixer",
        [
          Alcotest.test_case "translation" `Quick test_mixer_translates;
          Alcotest.test_case "quadrature sequences" `Quick test_mixer_quadrature;
        ] );
      ( "decimator",
        [
          Alcotest.test_case "default ratio" `Quick test_decimator_default;
          Alcotest.test_case "DC gain" `Quick test_decimator_dc_gain;
          Alcotest.test_case "all ratios" `Quick test_decimator_all_ratios;
          Alcotest.test_case "passband" `Quick test_decimator_passband;
          Alcotest.test_case "stopband" `Quick test_decimator_stopband;
        ]
        @ qcheck [ prop_fused_downconvert_iq ] );
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
          Alcotest.test_case "memoised ΣΔ drive equals run ~input" `Quick test_drive_memo_oracle;
          Alcotest.test_case "the buffer's sign guard slices as the buffer" `Quick
            test_buffer_sign_guard;
          Alcotest.test_case "a long capture streams in blocks" `Quick test_capture_streams_blocks;
          Alcotest.test_case "a long baseband capture copies no record" `Quick
            test_baseband_capture_allocation;
        ]
        @ qcheck [ prop_captures_equal_run ] );
      ( "arena",
        Alcotest.test_case "slot map is alias-free" `Quick test_arena_slots_distinct
        :: Alcotest.test_case "scratch reuse across evals" `Quick test_arena_reuse_across_evals
        :: qcheck [ prop_arena_chain_identity ] );
      ("properties", qcheck [ prop_config_roundtrip; prop_config_with_field; prop_mixer_energy ]);
    ]
