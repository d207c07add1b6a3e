type chip = {
  seed : int;
  sigma_scale : float;
  rng_root : Sigkit.Rng.t;
  age_hours : float;
  pvt_scale : float;            (* correlated corner drift (supply/temperature), 0 = nominal *)
  offset_bias : (string * float) list;  (* targeted per-parameter offsets injected by fault models *)
}

let fabricate ?(lot_sigma_scale = 1.0) ~seed () =
  {
    seed;
    sigma_scale = lot_sigma_scale;
    rng_root = Sigkit.Rng.create seed;
    age_hours = 0.0;
    pvt_scale = 0.0;
    offset_bias = [];
  }

let seed chip = chip.seed
let age_hours chip = chip.age_hours

let age chip ~hours =
  if hours < 0.0 then invalid_arg "Process.age: negative hours";
  (* nan and infinity would reach the resonator as a nan tank. *)
  let age_hours = chip.age_hours +. hours in
  if not (Float.is_finite age_hours) then invalid_arg "Process.age: non-finite hours";
  { chip with age_hours }

(* Environmental (PVT) drift: a correlated shift of every parameter
   away from the corner the die was calibrated at.  Direction and
   relative magnitude are fixed per (die, parameter) — the same die in
   the same environment always lands on the same corner — while
   [drift] scales the excursion (0.01 ~ a 1-sigma supply/temperature
   excursion in the paper's 65 nm terms). *)
let environment chip ~drift = { chip with pvt_scale = chip.pvt_scale +. drift }

let with_offset_bias chip ~name ~bias =
  { chip with offset_bias = (name, bias) :: chip.offset_bias }

let pvt_shift chip name =
  if chip.pvt_scale = 0.0 then 0.0
  else chip.pvt_scale *. Sigkit.Rng.gaussian (Sigkit.Rng.split chip.rng_root ("pvt:" ^ name))

let draw chip name =
  (* A one-shot generator keyed by (chip seed, parameter name): the first
     gaussian of the split stream is the parameter's permanent draw. *)
  Sigkit.Rng.gaussian (Sigkit.Rng.split chip.rng_root name)

(* BTI/HCI drift: grows with the decade of use-hours, direction and
   magnitude fixed per (die, parameter).  ~1.5% per decade, 1 sigma. *)
let aging_shift chip name =
  if chip.age_hours <= 0.0 then 0.0
  else
    let decades = log10 (1.0 +. chip.age_hours) in
    let direction = Sigkit.Rng.gaussian (Sigkit.Rng.split chip.rng_root ("aging:" ^ name)) in
    0.015 *. decades *. direction

let parameter chip ~name ~nominal ~sigma_pct =
  nominal
  *. (1.0
     +. (chip.sigma_scale *. sigma_pct /. 100.0 *. draw chip name)
     +. aging_shift chip name +. pvt_shift chip name)

let bias_of chip name =
  match List.assoc_opt name chip.offset_bias with
  | Some b -> b
  | None -> 0.0

let offset chip ~name ~sigma =
  (chip.sigma_scale *. sigma *. draw chip name)
  +. (sigma *. (aging_shift chip name +. pvt_shift chip name) *. 20.0)
  +. bias_of chip name

let noise_stream chip ~name = Sigkit.Rng.split chip.rng_root ("noise:" ^ name)

let variation_enabled chip = chip.sigma_scale > 0.0

(* Canonical fingerprint of the die's behavioural identity: two chips
   with equal fingerprints draw identical parameters for every name.
   Every field that feeds a draw is folded in; floats are rendered with
   [%h] (exact hex) so no two distinct values collide, and the offset
   biases are sorted so construction order does not leak into the key.
   The rng_root is excluded: it is a pure function of [seed]. *)
let identity chip =
  let biases =
    List.sort compare chip.offset_bias
    |> List.map (fun (name, bias) -> Printf.sprintf "%s=%h" name bias)
    |> String.concat ","
  in
  Printf.sprintf "seed=%d;sigma=%h;age=%h;pvt=%h;bias=[%s]" chip.seed chip.sigma_scale
    chip.age_hours chip.pvt_scale biases
