let chip_of chip faults =
  List.fold_left
    (fun chip fault ->
      match (fault : Fault.t) with
      | Fault.Pvt_drift { scale } -> Circuit.Process.environment chip ~drift:scale
      | Fault.Comparator_drift { offset_v } ->
        Circuit.Process.with_offset_bias chip ~name:"sdm.comp_offset" ~bias:offset_v
      | Fault.Aging { hours } -> Circuit.Process.age chip ~hours
      | Fault.Stuck_bits _ | Fault.Register_flip _ | Fault.Burst_noise _ -> chip)
    chip faults

let apply_stuck ~mask ~value bits =
  Int64.logor (Int64.logand bits (Int64.lognot mask)) (Int64.logand value mask)

let apply_flips ~rate ~seed bits =
  (* Fresh generator per load: the upset pattern is a deterministic
     function of the fault seed, so a fixed-seed campaign reproduces
     bit-for-bit. *)
  let rng = Sigkit.Rng.create (0xF11B + seed) in
  let bits = ref bits in
  for bit = 0 to Rfchain.Config.key_bits - 1 do
    if Sigkit.Rng.float rng < rate then
      bits := Int64.logxor !bits (Int64.shift_left 1L bit)
  done;
  !bits

let fabric_of faults =
  let flips =
    List.filter_map
      (function
        | Fault.Register_flip { rate; seed } -> Some (apply_flips ~rate ~seed)
        | _ -> None)
      faults
  in
  let stucks =
    List.filter_map
      (function
        | Fault.Stuck_bits { mask; value } -> Some (apply_stuck ~mask ~value)
        | _ -> None)
      faults
  in
  (* Register upsets act upstream of the fabric, so flips run first and
     a stuck bit overrides an upset on the same position. *)
  match flips @ stucks with
  | [] -> None
  | steps ->
    Some
      (fun config ->
        Rfchain.Config.of_bits
          (List.fold_left (fun bits step -> step bits) (Rfchain.Config.to_bits config) steps))

let add_bursts ~rate ~amplitude ~seed input =
  let rng = Sigkit.Rng.create (0xB0057 + seed) in
  Array.map
    (fun sample ->
      if Sigkit.Rng.float rng < rate then
        sample +. (amplitude *. Sigkit.Rng.gaussian rng)
      else sample)
    input

let rf_of faults =
  let steps =
    List.filter_map
      (fun fault ->
        match (fault : Fault.t) with
        | Fault.Burst_noise { rate; amplitude; seed } ->
          Some (add_bursts ~rate ~amplitude ~seed)
        | _ -> None)
      faults
  in
  match steps with
  | [] -> None
  | steps -> Some (fun input -> List.fold_left (fun input step -> step input) input steps)

(* Canonical, collision-free serialisation of a fault list (floats in
   exact hex, application order preserved): the engine tag that makes a
   faulted die content-addressable in the evaluation cache. *)
let tag_of faults =
  List.map
    (fun (fault : Fault.t) ->
      match fault with
      | Fault.Stuck_bits { mask; value } -> Printf.sprintf "stuck:%016Lx:%016Lx" mask value
      | Fault.Register_flip { rate; seed } -> Printf.sprintf "flip:%h:%d" rate seed
      | Fault.Comparator_drift { offset_v } -> Printf.sprintf "comp:%h" offset_v
      | Fault.Pvt_drift { scale } -> Printf.sprintf "pvt:%h" scale
      | Fault.Burst_noise { rate; amplitude; seed } ->
        Printf.sprintf "burst:%h:%h:%d" rate amplitude seed
      | Fault.Aging { hours } -> Printf.sprintf "aging:%h" hours)
    faults
  |> String.concat ";"

let die chip faults =
  Engine.Request.faulted_die
    ?fabric:(fabric_of faults)
    ?rf_fault:(rf_of faults)
    ~tag:(tag_of faults)
    (chip_of chip faults)

let receiver chip standard faults = Engine.Request.receiver (die chip faults) standard
