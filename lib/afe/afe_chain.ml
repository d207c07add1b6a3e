let fs = 10e6
let target_cutoff_hz = 1e6

type t = {
  chip : Circuit.Process.chip;
  cap_bank : Circuit.Cap_array.t;        (* coarse, 6 bits *)
  cap_fine : Circuit.Cap_array.t;        (* fine, 5 bits *)
  gm_siemens : float;                    (* filter transconductance *)
  pga_gain_error_db : float array;       (* per-code gain deviation *)
  raw_offset_v : float;                  (* untrimmed output offset *)
  noise_sigma : float;
}

(* Cutoff = gm / (2 pi C): with gm ~ 40 uS and C ~ 6.4 pF the design
   centre sits at 1 MHz. *)
let create chip =
  {
    chip;
    cap_bank =
      Circuit.Cap_array.create chip ~name:"afe.cc" ~bits:6 ~unit_cap:150e-15
        ~mismatch_sigma_pct:1.5;
    cap_fine =
      Circuit.Cap_array.create chip ~name:"afe.cf" ~bits:5 ~unit_cap:10e-15
        ~mismatch_sigma_pct:1.5;
    gm_siemens = Circuit.Process.parameter chip ~name:"afe.gm" ~nominal:40e-6 ~sigma_pct:8.0;
    pga_gain_error_db =
      Array.init 16 (fun code ->
          Circuit.Process.offset chip ~name:(Printf.sprintf "afe.pga%d" code) ~sigma:0.3);
    raw_offset_v = Circuit.Process.offset chip ~name:"afe.offset" ~sigma:8e-3;
    noise_sigma = Circuit.Process.parameter chip ~name:"afe.noise" ~nominal:60e-6 ~sigma_pct:10.0;
  }

let capacitance t (config : Afe_config.t) =
  Circuit.Cap_array.capacitance t.cap_bank config.cutoff_coarse
  +. Circuit.Cap_array.capacitance t.cap_fine config.cutoff_fine

let cutoff_hz t config = t.gm_siemens /. (2.0 *. Float.pi *. capacitance t config)

let pga_gain_db t (config : Afe_config.t) =
  (2.0 *. float_of_int config.pga_gain) +. t.pga_gain_error_db.(config.pga_gain)

let quality_factor t (config : Afe_config.t) =
  (* Butterworth wants Q = 0.707; the trim covers ~0.4..1.2 around a
     per-die skew. *)
  let skew = Circuit.Process.parameter t.chip ~name:"afe.q" ~nominal:1.0 ~sigma_pct:10.0 in
  skew *. (0.4 +. (0.055 *. float_of_int config.q_trim))

let residual_offset_v t (config : Afe_config.t) =
  t.raw_offset_v -. ((float_of_int config.offset_trim -. 16.0) *. 0.7e-3)

(* Samples between cancellation polls: the capture is a cancellation
   point at samples 0, 4096, ..., the sigma-delta loop's cadence. *)
let poll_block = 4096

let run t (config : Afe_config.t) input =
  let gain = Sigkit.Decibel.power_ratio_of_db (pga_gain_db t config /. 2.0) in
  (* PGA nonlinearity: mild compressive stage, 1.6 V rail. *)
  let pga = Circuit.Nonlinear.create ~gain ~iip3_dbm:24.0 ~rail:1.6 () in
  (* Biquad low-pass (RBJ cookbook) at the configured cutoff and Q. *)
  let f_c = Float.max 1e3 (Float.min (fs /. 2.2) (cutoff_hz t config)) in
  let q = Float.max 0.2 (quality_factor t config) in
  let w0 = 2.0 *. Float.pi *. f_c /. fs in
  let alpha = sin w0 /. (2.0 *. q) in
  let b1 = 1.0 -. cos w0 in
  let b0 = b1 /. 2.0 and b2 = b1 /. 2.0 in
  let a0 = 1.0 +. alpha and a1 = -2.0 *. cos w0 and a2 = 1.0 -. alpha in
  let n = Array.length input in
  (* The thermal noise, drawn into the output in one batch (the
     sequence per-sample draws give); cell i is read before the
     stage's output overwrites it. *)
  let out = Array.make n 0.0 in
  Sigkit.Rng.gaussian_fill (Circuit.Process.noise_stream t.chip ~name:"afe.run") out ~n;
  let offset = residual_offset_v t config in
  let sigma = t.noise_sigma in
  (* [Circuit.Nonlinear.apply pga], written out expression for
     expression so the loop calls no function and its state stays
     unboxed. *)
  let p_a1, p_a2, p_a3, p_rail = Circuit.Nonlinear.coefficients pga in
  let p_railed = Float.is_finite p_rail in
  let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
  let block = ref 0 in
  while !block < n do
    Telemetry.Cancel.poll ();
    let stop = if n - !block < poll_block then n else !block + poll_block in
    for i = !block to stop - 1 do
      let x = Array.unsafe_get input i +. (sigma *. Array.unsafe_get out i) in
      let y = (p_a1 *. x) +. (p_a2 *. x *. x) +. (p_a3 *. x *. x *. x) in
      let amplified = if p_railed then p_rail *. tanh (y /. p_rail) else y in
      let y =
        ((b0 *. amplified) +. (b1 *. !x1) +. (b2 *. !x2) -. (a1 *. !y1) -. (a2 *. !y2)) /. a0
      in
      x2 := !x1;
      x1 := amplified;
      y2 := !y1;
      y1 := y;
      Array.unsafe_set out i (y +. offset)
    done;
    block := stop
  done;
  out

type measurement = {
  gain_db : float;
  cutoff_error_hz : float;
  offset_v : float;
  thd_db : float;
}

let tone_gain_db t config ~freq ~amplitude =
  let n = 4096 in
  let freq = Sigkit.Waveform.coherent_frequency ~freq ~fs ~n in
  let x = Sigkit.Waveform.tone ~amplitude ~freq ~fs n in
  let y = run t config x in
  let steady = Array.sub y (n / 2) (n / 2) in
  let spec = Sigkit.Spectrum.periodogram ~fs steady in
  let out_power = Sigkit.Spectrum.tone_power spec ~freq in
  let x_spec = Sigkit.Spectrum.periodogram ~fs (Array.sub x (n / 2) (n / 2)) in
  let in_power = Sigkit.Spectrum.tone_power x_spec ~freq in
  Sigkit.Decibel.db_of_power_ratio (out_power /. in_power)

(* -3 dB point by bisection on measured gain. *)
let measured_cutoff_hz t config =
  let passband = tone_gain_db t config ~freq:(fs /. 100.0) ~amplitude:5e-3 in
  let target = passband -. 3.0 in
  let rec bisect lo hi n =
    if n = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      let g = tone_gain_db t config ~freq:mid ~amplitude:5e-3 in
      if g > target then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  bisect (fs /. 200.0) (fs /. 2.2) 12

let measure t config =
  let gain_db = tone_gain_db t config ~freq:(fs /. 100.0) ~amplitude:5e-3 in
  let cutoff_error_hz = Float.abs (measured_cutoff_hz t config -. target_cutoff_hz) in
  (* DC offset with a grounded input. *)
  let quiet = run t config (Array.make 2048 0.0) in
  let offset_v = Sigkit.Waveform.mean (Array.sub quiet 1024 1024) in
  (* THD: -6 dBFS tone in the passband, third harmonic. *)
  let n = 8192 in
  let f1 = Sigkit.Waveform.coherent_frequency ~freq:200e3 ~fs ~n in
  let amplitude = 0.5 /. Sigkit.Decibel.power_ratio_of_db (pga_gain_db t config /. 2.0) in
  let y = run t config (Sigkit.Waveform.tone ~amplitude ~freq:f1 ~fs n) in
  let spec = Sigkit.Spectrum.periodogram ~fs (Array.sub y (n / 2) (n / 2)) in
  let fundamental = Sigkit.Spectrum.tone_power spec ~freq:f1 in
  let third = Sigkit.Spectrum.tone_power spec ~freq:(3.0 *. f1) in
  let thd_db = Sigkit.Decibel.db_of_power_ratio (fundamental /. Float.max 1e-300 third) in
  { gain_db; cutoff_error_hz; offset_v; thd_db }

type spec = {
  max_cutoff_error_hz : float;
  gain_target_db : float;
  max_gain_error_db : float;
  max_offset_v : float;
  min_thd_db : float;
}

let default_spec =
  {
    max_cutoff_error_hz = 50e3;
    gain_target_db = 20.0;
    max_gain_error_db = 1.0;
    max_offset_v = 2e-3;
    min_thd_db = 40.0;
  }

let in_spec spec m =
  m.cutoff_error_hz <= spec.max_cutoff_error_hz
  && Float.abs (m.gain_db -. spec.gain_target_db) <= spec.max_gain_error_db
  && Float.abs m.offset_v <= spec.max_offset_v
  && m.thd_db >= spec.min_thd_db
