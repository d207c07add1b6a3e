(* Per-code hot-path setup, derived once from the chip's (pure) process
   draws on first use: the amplifier's polynomial, the noise stream's
   name and per-sample sigma.  Memoising is bit-identical because every
   Process draw is a pure function of (chip, name), and it hoists the
   Printf name construction, the Nonlinear/Noise_source setup and their
   process draws out of every run. *)
type setup = {
  stage : Circuit.Nonlinear.t;
  noise_name : string;
  noise_sigma : float;
}

type t = {
  chip : Circuit.Process.chip;
  fs : float;
  gain_error_db : float array;   (** per-code realised-gain deviation *)
  setups : setup option array;   (* per-code, lazily memoised *)
}

let levels = 16
let base_gain_db = 8.0
let step_db = 2.0

let create chip ~fs =
  let gain_error code =
    Circuit.Process.offset chip ~name:(Printf.sprintf "vglna.gain%d" code) ~sigma:0.4
  in
  { chip; fs; gain_error_db = Array.init levels gain_error; setups = Array.make levels None }

let check_code code =
  if code < 0 || code >= levels then invalid_arg "Vglna: gain code out of range"

let nominal_gain_db ~code = base_gain_db +. (step_db *. float_of_int code)

let gain_db t ~code =
  check_code code;
  nominal_gain_db ~code +. t.gain_error_db.(code)

let code_for_gain_db g =
  let code = int_of_float (Float.round ((g -. base_gain_db) /. step_db)) in
  max 0 (min (levels - 1) code)

let segment_code ~p_dbm =
  if p_dbm <= -45.0 then 14        (* [-85,-45]: high gain *)
  else if p_dbm <= -20.0 then 9    (* [-60,-20]: mid gain *)
  else 3                           (* [-40,0]:   low gain *)

let noise_figure_db t ~code =
  check_code code;
  let nominal = 3.0 +. ((float_of_int (levels - 1 - code)) *. 0.35) in
  Circuit.Process.parameter t.chip
    ~name:(Printf.sprintf "vglna.nf%d" code)
    ~nominal ~sigma_pct:4.0

let iip3_dbm t ~code =
  check_code code;
  let nominal = -10.0 +. (float_of_int (levels - 1 - code) *. 1.2) in
  nominal +. Circuit.Process.offset t.chip ~name:(Printf.sprintf "vglna.iip3%d" code) ~sigma:0.5

let setup t ~code =
  match t.setups.(code) with
  | Some s -> s
  | None ->
    let gain = Sigkit.Decibel.power_ratio_of_db (gain_db t ~code /. 2.0) in
    (* power_ratio_of_db(g/2) = 10^(g/20): voltage gain. *)
    let s =
      {
        stage = Circuit.Nonlinear.create ~gain ~iip3_dbm:(iip3_dbm t ~code) ~rail:1.4 ();
        noise_name = Printf.sprintf "vglna.noise%d" code;
        noise_sigma =
          Circuit.Noise_source.sigma_of_noise_figure ~nf_db:(noise_figure_db t ~code) ~fs:t.fs;
      }
    in
    t.setups.(code) <- Some s;
    s

(* Workspace slot for the noise draw (see DESIGN §15): the modulator's
   block buffer, at the modulator's block length.  The modulator runs
   after this stage, and the record is never that buffer. *)
let noise_slot = 7

let run_inplace t ~code buf =
  check_code code;
  let s = setup t ~code in
  let n = Array.length buf in
  (* The noise stream is freshly split per run (as Noise_source.create
     would), and gaussian_fill over consecutive blocks draws the same
     sequence as the per-sample Noise_source.sample calls it replaces. *)
  let stream = Circuit.Process.noise_stream t.chip ~name:s.noise_name in
  let nbuf =
    Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:noise_slot ~len:(min Sdm.block_len n)
  in
  let sigma = s.noise_sigma in
  let a1, a2, a3, rail = Circuit.Nonlinear.coefficients s.stage in
  let railed = Float.is_finite rail in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    let len = min Sdm.block_len (n - p) in
    Sigkit.Rng.gaussian_fill stream nbuf ~n:len;
    for i = p to p + len - 1 do
      let x = Array.unsafe_get buf i +. (sigma *. Array.unsafe_get nbuf (i - p)) in
      (* Nonlinear.apply, replicated expression-for-expression so direct
         float stores keep the loop unboxed. *)
      let y = (a1 *. x) +. (a2 *. x *. x) +. (a3 *. x *. x *. x) in
      Array.unsafe_set buf i (if railed then rail *. tanh (y /. rail) else y)
    done;
    pos := p + len
  done

let run t ~code input =
  let out = Array.copy input in
  run_inplace t ~code out;
  out
