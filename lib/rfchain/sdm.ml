type tank = {
  theta : float;
  l_henry : float;
  c_farad : float;
}

type t = {
  chip : Circuit.Process.chip;
  fs : float;
  config : Config.t;
  tank1 : tank;
  tank2 : tank;
  r : float;                   (* Q-enhancement pole radius *)
  gmin : float;                (* input transconductance gain *)
  gmin_stage : Circuit.Nonlinear.t;
  gdac : float;                (* feedback DAC gain *)
  dac_mismatch : float;        (* residual level mismatch after trim *)
  preamp_gain : float;
  comp_offset : float;         (* residual comparator offset after trim *)
  comp_hysteresis : float;     (* regeneration dead zone, bias-dependent *)
  comp_noise_sigma : float;    (* decision noise referred to preamp output *)
  delay_samples : float;       (* fractional excess loop delay *)
  input_noise_sigma : float;   (* modulator input-referred circuit noise *)
  buffer_gain : float;         (* calibration output buffer, when in path *)
}

(* Design constants of the case study (65 nm, 0.5 nH tank). *)
let l_nominal = 0.5e-9
let coarse_unit = 80e-15
let fine_unit = 0.35e-15
let fixed_cap = 4.3e-12

(* Trim DACs: 6-bit codes, mid-code = unity. *)
let trim6 code = 0.52 +. (0.015 *. float_of_int code)

let tank_of_codes chip ~prefix ~fs ~coarse ~fine =
  let arrays name bits unit =
    Circuit.Cap_array.create chip ~name:(prefix ^ "." ^ name) ~bits ~unit_cap:unit
      ~mismatch_sigma_pct:1.0
  in
  let c_coarse = arrays "cc" 8 coarse_unit in
  let c_fine = arrays "cf" 8 fine_unit in
  let c_fixed =
    Circuit.Process.parameter chip ~name:(prefix ^ ".cfixed") ~nominal:fixed_cap ~sigma_pct:5.0
  in
  let l = Circuit.Process.parameter chip ~name:(prefix ^ ".L") ~nominal:l_nominal ~sigma_pct:8.0 in
  let c =
    c_fixed
    +. Circuit.Cap_array.capacitance c_coarse coarse
    +. Circuit.Cap_array.capacitance c_fine fine
  in
  { theta = Circuit.Resonator.theta_of_lc ~l ~c ~fs; l_henry = l; c_farad = c }

let pole_radius_of_code chip code =
  let base = Circuit.Process.parameter chip ~name:"sdm.r_base" ~nominal:0.968 ~sigma_pct:0.4 in
  let slope = Circuit.Process.parameter chip ~name:"sdm.r_slope" ~nominal:1.05e-3 ~sigma_pct:3.0 in
  base +. (slope *. float_of_int code)

let required_delay_code chip ~fs =
  let skew = Circuit.Process.offset chip ~name:"sdm.delay_skew" ~sigma:1.5 in
  let code = Float.round (4.0 +. (4.0 *. fs /. 12e9) +. skew) in
  max 0 (min 15 (int_of_float code))

let create chip ~fs (config : Config.t) =
  let tank1 = tank_of_codes chip ~prefix:"sdm.tank1" ~fs ~coarse:config.cap_coarse ~fine:config.cap_fine in
  (* The two tanks sit side by side on-die and share the tuning codes;
     they track each other to local-mismatch accuracy (~0.3%), not to
     the global-corner accuracy of independent draws. *)
  let tank2 =
    let dl = Circuit.Process.offset chip ~name:"sdm.tank2.dl" ~sigma:0.003 in
    let dc = Circuit.Process.offset chip ~name:"sdm.tank2.dc" ~sigma:0.003 in
    let l = tank1.l_henry *. (1.0 +. dl) and c = tank1.c_farad *. (1.0 +. dc) in
    { theta = Circuit.Resonator.theta_of_lc ~l ~c ~fs; l_henry = l; c_farad = c }
  in
  let gmin_nom = Circuit.Process.parameter chip ~name:"sdm.gmin" ~nominal:1.0 ~sigma_pct:5.0 in
  let gmin = gmin_nom *. trim6 config.gmin_bias in
  (* The transconductor's linearity peaks at a per-die bias sweet spot. *)
  let gmin_sweet =
    let d = Circuit.Process.offset chip ~name:"sdm.gmin_sweet" ~sigma:3.0 in
    max 8 (min 56 (32 + int_of_float (Float.round d)))
  in
  let gmin_iip3 = 16.0 -. (0.4 *. float_of_int (abs (config.gmin_bias - gmin_sweet))) in
  let gdac_nom = Circuit.Process.parameter chip ~name:"sdm.gdac" ~nominal:1.0 ~sigma_pct:5.0 in
  let gdac = gdac_nom *. trim6 config.dac_bias in
  let dac_mismatch =
    Circuit.Process.offset chip ~name:"sdm.dac_mismatch" ~sigma:0.0015
    -. (float_of_int (config.dac_trim - 2) *. 0.001)
  in
  let preamp_gain = 0.2 +. (0.05 *. float_of_int config.preamp_bias) in
  let comp_offset_raw = Circuit.Process.offset chip ~name:"sdm.comp_offset" ~sigma:0.03 in
  let comp_offset =
    comp_offset_raw
    -. (float_of_int (config.comp_bias - 32) *. 0.002)
    -. (float_of_int (config.preamp_trim - 2) *. 0.004)
  in
  let comp_noise_sigma =
    Circuit.Process.parameter chip ~name:"sdm.comp_noise" ~nominal:0.004 ~sigma_pct:10.0
  in
  (* Regeneration strength peaks at a per-die comparator bias; away from
     it the dead zone widens and injects in-band noise. *)
  let comp_sweet =
    let d = Circuit.Process.offset chip ~name:"sdm.comp_sweet" ~sigma:4.0 in
    max 8 (min 56 (32 + int_of_float (Float.round d)))
  in
  let comp_hysteresis = 0.0003 +. (0.002 *. float_of_int (abs (config.comp_bias - comp_sweet))) in
  let delay_samples =
    0.25 *. Float.abs (float_of_int (config.loop_delay - required_delay_code chip ~fs))
  in
  let input_noise_sigma =
    Circuit.Process.parameter chip ~name:"sdm.input_noise" ~nominal:0.0105 ~sigma_pct:8.0
  in
  let buffer_gain =
    if config.cal_buffer_enable then 0.88 +. (0.04 *. float_of_int config.out_buffer) else 1.0
  in
  {
    chip;
    fs;
    config;
    tank1;
    tank2;
    r = pole_radius_of_code chip config.gm_q;
    gmin;
    gmin_stage = Circuit.Nonlinear.create ~gain:1.0 ~iip3_dbm:gmin_iip3 ~rail:1.5 ();
    gdac;
    dac_mismatch;
    preamp_gain;
    comp_offset;
    comp_hysteresis;
    comp_noise_sigma;
    delay_samples;
    input_noise_sigma;
    buffer_gain;
  }

let tank_frequency t = 1.0 /. (2.0 *. Float.pi *. sqrt (t.tank1.l_henry *. t.tank1.c_farad))
let oscillates t = t.r >= 1.0

let osc_probes = Telemetry.Counter.make "sdm.osc_probes"

let global_probe_count () = Telemetry.Counter.value osc_probes

let oscillation_frequency t ~n =
  Telemetry.Counter.incr osc_probes;
  Telemetry.Span.with_ ~name:"sdm.oscillation_probe" (fun () ->
      let res = Circuit.Resonator.create ~theta:t.tank1.theta ~r:t.r ~limit:1.2 () in
      Circuit.Resonator.oscillation_frequency res ~fs:t.fs ~n)

(* Loop-filter feedback coefficients of the z -> -z^2 mapped MOD2:
   k1 = 1 (outer feedback, through both resonators), k2 = -2 (inner). *)
let k1 = 1.0
let k2 = -2.0

let runs = Telemetry.Counter.make "sdm.runs"
let steps = Telemetry.Counter.make "sdm.steps"

(* Decision history length for the feedback DAC: a power of two so the
   circular index is a mask, deep enough for the largest delay code. *)
let hist_len = 8
let hist_mask = hist_len - 1

(* Workspace slots (DESIGN §15).  8-9 hold the comparator and input
   noise and 10 the buffer-mode jitter, each tagged with its stream:
   every stream is a fresh split of the die's root, a pure function of
   (die, name), so a die's repeat runs find the draw already there.
   13 holds the drive of a described input record (below) once it is
   admitted, and otherwise the receiver's test tone; 7 the block the
   loop writes. *)
let block_slot = 7
let comp_slot = 8
let input_slot = 9
let jitter_slot = 10
let drive_slot = 13

(* Samples per block: one cancellation poll at samples 0, 4096, ...,
   and the length of the block buffer. *)
let block_len = 4096

let input_noise t n =
  Sigkit.Workspace.gaussian (Sigkit.Workspace.get ()) ~slot:input_slot ~len:n
    (Circuit.Process.noise_stream t.chip ~name:"run.input")

(* The loop's input drive for samples [pos, pos + len), into cells
   [0, len) of [u]: the Gmin stage ([Circuit.Nonlinear.apply],
   replicated expression for expression) plus the input-referred
   noise.  Neither depends on the loop state. *)
let drive_into t input noise ~pos ~len u =
  let in_sigma = t.input_noise_sigma in
  if t.config.gmin_enable then begin
    let gmin = t.gmin in
    let g_a1, g_a2, g_a3, g_rail = Circuit.Nonlinear.coefficients t.gmin_stage in
    let g_railed = Float.is_finite g_rail in
    for k = 0 to len - 1 do
      let x = Array.unsafe_get input (pos + k) in
      let y = (g_a1 *. x) +. (g_a2 *. x *. x) +. (g_a3 *. x *. x *. x) in
      let y = if g_railed then g_rail *. tanh (y /. g_rail) else y in
      Array.unsafe_set u k ((gmin *. y) +. (in_sigma *. Array.unsafe_get noise (pos + k)))
    done
  end
  else
    for k = 0 to len - 1 do
      Array.unsafe_set u k (0.0 +. (in_sigma *. Array.unsafe_get noise (pos + k)))
    done

(* What the drive slot holds: the drive of the input record that the
   caller's tag describes, under one [gmin_bias], with the Gmin stage
   on.  That tag fixes the die (see sdm.mli), and with it the input
   noise and the die's Gmin draws; of the word, only [gmin_bias] moves
   [gmin] and the stage's IIP3. *)
type Sigkit.Workspace.tag += Drive of { input : Sigkit.Workspace.tag; gmin_bias : int }

let same_drive same_input held wanted =
  match held, wanted with
  | Drive a, Drive b -> a.gmin_bias = b.gmin_bias && same_input a.input b.input
  | _ -> false

(* The calibration buffer's transfer. *)
let[@inline] buffered bgain v = 1.2 *. tanh (bgain *. v /. 1.2)

(* What the buffer pass stores for a reader of signs only, i.e. of
   [x >= 0.0]: [v] itself.  The buffer is odd and monotone with
   [bgain >= 0.88], so it keeps the sign of every [v], and NaN and
   +-0.0 slice alike either way; the one exception is a negative [v]
   that the buffer rounds to -0.0 (which slices as +1), and that takes
   [|v|] below about 1e-300.  Those samples get the real buffer. *)
let[@inline] sign_guard bgain v = if v < 0.0 && v > -1e-300 then buffered bgain v else v

let buffer_sign t v = sign_guard t.buffer_gain v

(* One loop for every configuration word, carrying only the
   recurrence: the mode bits are loop invariants, each block's input
   drive and every noise sample are ready before it, the calibration
   buffer is a pointwise pass over the block after it, and the
   cancellation poll runs between blocks, so the per-sample body calls
   no function.  The recurrences are [Circuit.Resonator.output]/[feed],
   [Circuit.Comparator.step] and [Circuit.Nonlinear.apply] replicated
   expression for expression, so the output is bit-identical to
   composing those modules (test_rfchain keeps that composition as the
   oracle).  The history shift is a masked circular index.  The state
   lives across blocks; the block buffer holds the drive of sample
   [i] at cell [i - p] until the loop stores that sample's output
   there.  Array accesses are unsafe: the noise buffers have length
   [n] and the block buffer [min block_len n] (the empty jitter buffer
   of the clocked modes is never read). *)
let stream ?memo ~signs t input sink =
  let n = Array.length input in
  Telemetry.Counter.incr runs;
  Telemetry.Counter.add steps n;
  Telemetry.Span.with_ ~name:"sdm.run" (fun () ->
  let cfg = t.config in
  let clocked = cfg.comp_clock_enable and fb_on = cfg.fb_enable in
  let ws = Sigkit.Workspace.get () in
  let buf = Sigkit.Workspace.arr ws ~slot:block_slot ~len:(min block_len n) in
  let per_block () =
    let noise = input_noise t n in
    fun p len -> drive_into t input noise ~pos:p ~len buf
  in
  (* Without the Gmin stage the drive is bare noise, one multiply per
     sample: not worth a slot.  With it, the slot takes the drive only
     on its second request in a row, so a one-off drive leaves the
     receiver's test tone there. *)
  let fill_drive =
    match memo with
    | Some (input_tag, same_input) when cfg.gmin_enable -> (
      match
        Sigkit.Workspace.admitted ws ~slot:drive_slot ~len:n ~same:(same_drive same_input)
          (Drive { input = input_tag; gmin_bias = cfg.gmin_bias })
          (fun u -> drive_into t input (input_noise t n) ~pos:0 ~len:n u)
      with
      | Some drive -> fun p len -> Array.blit drive p buf 0 len
      | None -> per_block ())
    | _ -> per_block ()
  in
  (* Without the clock the latch never regenerates: its full
     input-referred noise shows up on the buffered output. *)
  let comp_sigma =
    if clocked then t.comp_noise_sigma else Float.max t.comp_noise_sigma 0.05
  in
  (* A noiseless comparator draws nothing; a zero batch under a zero
     sigma adds exactly the +0.0 it contributes. *)
  let comp_quiet = not (comp_sigma > 0.0) in
  let comp_sigma = if comp_quiet then 0.0 else comp_sigma in
  let comp_buf =
    if comp_quiet then begin
      let b = Sigkit.Workspace.arr ws ~slot:comp_slot ~len:n in
      Array.fill b 0 n 0.0;
      b
    end
    else
      Sigkit.Workspace.gaussian ws ~slot:comp_slot ~len:n
        (Circuit.Process.noise_stream t.chip ~name:"run.comp")
  in
  (* An unclocked comparator output crosses into the clocked digital
     domain asynchronously: no retiming, so the effective sampling
     instant wanders (metastability + clock skew).  ~0.2 samples rms at
     12 GS/s; first-order jitter error is slope * delta_t.  The clocked
     path is synchronous and jitter-free. *)
  let jitter_buf =
    if clocked then [||]
    else
      Sigkit.Workspace.gaussian ws ~slot:jitter_slot ~len:n
        (Circuit.Process.noise_stream t.chip ~name:"run.jitter")
  in
  (* Fractional loop-delay error is modelled as linear interpolation
     between decision-history taps (a shifted DAC pulse delivers charge
     split across two periods). *)
  let d_int = min (hist_len - 2) (int_of_float (Float.floor t.delay_samples)) in
  let d_frac = t.delay_samples -. float_of_int d_int in
  let fa = 1.0 -. d_frac in
  let a1_1 = 2.0 *. t.r *. cos t.tank1.theta in
  let a1_2 = 2.0 *. t.r *. cos t.tank2.theta in
  let a2 = -.(t.r *. t.r) in
  let limit = 50.0 in
  let r1y1 = ref 0.0 and r1y2 = ref 0.0 and r1x1 = ref 0.0 and r1x2 = ref 0.0 in
  let r2y1 = ref 0.0 and r2y2 = ref 0.0 and r2x1 = ref 0.0 and r2x2 = ref 0.0 in
  (* Opening the feedback loop removes the DAC's DC path that defines
     the loop filter's operating point: the comparator input floats to
     a large offset. *)
  let open_loop_offset = if fb_on then 0.0 else 0.5 in
  let preamp = t.preamp_gain in
  let offset = t.comp_offset and hyst = t.comp_hysteresis in
  let comp_prev = ref 1.0 and lp_state = ref 0.0 in
  let lp_alpha = Circuit.Comparator.buffer_pole_alpha in
  let lp_gain = Circuit.Comparator.buffer_gain and clip = Circuit.Comparator.buffer_clip in
  let gdac = t.gdac and mismatch = t.dac_mismatch in
  let bgain = t.buffer_gain in
  (* A clocked decision is exactly +-1, so the buffer takes one of two
     values, both of the decision's sign. *)
  let buf_hi = buffered bgain 1.0 and buf_lo = buffered bgain (-1.0) in
  let v_prev = ref 0.0 in
  let hist = Array.make hist_len 0.0 in
  let head = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    (* Cancellation point: a deadline or SIGINT stops the capture
       within 4096 samples (raises; never perturbs the recurrence). *)
    Telemetry.Cancel.poll ();
    let p = !pos in
    let len = if n - p < block_len then n - p else block_len in
    fill_drive p len;
    for i = p to p + len - 1 do
      let u = Array.unsafe_get buf (i - p) in
      (* Forward path first: both resonator outputs depend only on past
         loop inputs, so no algebraic loop arises. *)
      let w1 =
        let y = (a1_1 *. !r1y1) +. (a2 *. !r1y2) +. !r1x2 in
        let y = if y > limit then limit else if y < -.limit then -.limit else y in
        r1y2 := !r1y1;
        r1y1 := y;
        r1x2 := !r1x1;
        y
      in
      let w2 =
        let y = (a1_2 *. !r2y1) +. (a2 *. !r2y2) +. !r2x2 in
        let y = if y > limit then limit else if y < -.limit then -.limit else y in
        r2y2 := !r2y1;
        r2y1 := y;
        r2x2 := !r2x1;
        y
      in
      let s = preamp *. (w2 +. open_loop_offset) in
      let v_in = s +. offset +. (comp_sigma *. Array.unsafe_get comp_buf i) in
      let v =
        if clocked then begin
          (* Regenerative latch with hysteresis. *)
          let d = if Float.abs v_in <= hyst then !comp_prev else if v_in > 0.0 then 1.0 else -1.0 in
          comp_prev := d;
          d
        end
        else begin
          (* Unclocked latch: a one-pole low-pass, attenuated and clipped. *)
          lp_state := !lp_state +. (lp_alpha *. (v_in -. !lp_state));
          let b = lp_gain *. !lp_state in
          if b > clip then clip else if b < -.clip then -.clip else b
        end
      in
      (* Circular decision history; tap k is the decision k samples old,
         i.e. index (head + k) under the mask. *)
      let h = (!head + hist_mask) land hist_mask in
      head := h;
      Array.unsafe_set hist h v;
      let v_delayed =
        (fa *. Array.unsafe_get hist ((h + d_int) land hist_mask))
        +. (d_frac *. Array.unsafe_get hist ((h + d_int + 1) land hist_mask))
      in
      let fb = if fb_on then gdac *. (v_delayed +. mismatch) else 0.0 in
      r1x1 := u -. (k1 *. fb);
      r2x1 := w1 -. (k2 *. fb);
      let v_sampled =
        if clocked then v
        else begin
          let slope = v -. !v_prev in
          v_prev := v;
          v +. (0.2 *. Array.unsafe_get jitter_buf i *. slope)
        end
      in
      Array.unsafe_set buf (i - p) v_sampled
    done;
    if cfg.cal_buffer_enable then begin
      if clocked then begin
        if not signs then
          for k = 0 to len - 1 do
            Array.unsafe_set buf k (if Array.unsafe_get buf k > 0.0 then buf_hi else buf_lo)
          done
      end
      else if signs then
        for k = 0 to len - 1 do
          Array.unsafe_set buf k (sign_guard bgain (Array.unsafe_get buf k))
        done
      else
        for k = 0 to len - 1 do
          Array.unsafe_set buf k (buffered bgain (Array.unsafe_get buf k))
        done
    end;
    sink buf p len;
    pos := p + len
  done)

let run_into t input output =
  if Array.length output < Array.length input then
    invalid_arg "Sdm.run_into: output shorter than input";
  stream ~signs:false t input (fun block p len -> Array.blit block 0 output p len)

let run t input =
  let output = Array.make (Array.length input) 0.0 in
  run_into t input output;
  output
