type t = {
  w1 : float array array;   (** hidden x input *)
  b1 : float array;
  w2 : float array array;   (** output x hidden *)
  b2 : float array;
  secret : float array;
  target : float array;
}

let forward ~w1 ~b1 ~w2 ~b2 x =
  let hidden =
    Array.mapi
      (fun j row ->
        let acc = ref b1.(j) in
        Array.iteri (fun i w -> acc := !acc +. (w *. x.(i))) row;
        tanh !acc)
      w1
  in
  let out =
    Array.mapi
      (fun k row ->
        let acc = ref b2.(k) in
        Array.iteri (fun j w -> acc := !acc +. (w *. hidden.(j))) row;
        !acc)
      w2
  in
  (hidden, out)

let train ?(hidden = 8) ?(epochs = 3000) ?(decoys = 24) rng ~key_voltages ~target_biases =
  let n_in = Array.length key_voltages and n_out = Array.length target_biases in
  if n_in = 0 || n_out = 0 then invalid_arg "Neural_bias.train: empty vectors";
  let w1 = Array.init hidden (fun _ -> Array.init n_in (fun _ -> Sigkit.Rng.uniform rng (-0.5) 0.5)) in
  let b1 = Array.make hidden 0.0 in
  let w2 = Array.init n_out (fun _ -> Array.init hidden (fun _ -> Sigkit.Rng.uniform rng (-0.5) 0.5)) in
  let b2 = Array.make n_out 0.0 in
  (* Training set: the secret key maps to the target; decoy vectors map
     to pseudo-random garbage so neighbourhoods do not leak the key. *)
  let decoy_samples =
    List.init decoys (fun _ ->
        let x = Array.init n_in (fun _ -> Sigkit.Rng.float rng) in
        let y = Array.init n_out (fun _ -> Sigkit.Rng.float rng) in
        (x, y))
  in
  let samples = (key_voltages, target_biases) :: decoy_samples in
  let rate = 0.08 in
  for _ = 1 to epochs do
    let step (x, y) =
      let hidden_act, out = forward ~w1 ~b1 ~w2 ~b2 x in
      let d_out = Array.mapi (fun k o -> o -. y.(k)) out in
      (* Output layer gradients. *)
      Array.iteri
        (fun k row ->
          Array.iteri (fun j _ -> row.(j) <- row.(j) -. (rate *. d_out.(k) *. hidden_act.(j))) row;
          b2.(k) <- b2.(k) -. (rate *. d_out.(k)))
        w2;
      (* Hidden layer gradients through tanh'. *)
      for j = 0 to hidden - 1 do
        let upstream = ref 0.0 in
        for k = 0 to n_out - 1 do
          upstream := !upstream +. (d_out.(k) *. w2.(k).(j))
        done;
        let grad = !upstream *. (1.0 -. (hidden_act.(j) *. hidden_act.(j))) in
        Array.iteri (fun i xi -> w1.(j).(i) <- w1.(j).(i) -. (rate *. grad *. xi)) x;
        b1.(j) <- b1.(j) -. (rate *. grad)
      done
    in
    List.iter step samples
  done;
  { w1; b1; w2; b2; secret = Array.copy key_voltages; target = Array.copy target_biases }

let infer t x =
  let _, out = forward ~w1:t.w1 ~b1:t.b1 ~w2:t.w2 ~b2:t.b2 x in
  out

let bias_error t x =
  let out = infer t x in
  let acc = ref 0.0 in
  Array.iteri
    (fun k o ->
      let d = o -. t.target.(k) in
      acc := !acc +. (d *. d))
    out;
  sqrt (!acc /. float_of_int (Array.length out))

let descriptor =
  {
    Technique.name = "neural-network biasing";
    reference = "[11]";
    key_bits = 32;  (* analog key: 4 voltages at ~8-bit DAC precision *)
    lock_site = Technique.Neural_biasing;
    per_chip_key = false;
    design_intrusive = true;
    added_circuitry = true;
    area_overhead_pct = 9.0;
    power_overhead_pct = 4.0;
    removal =
      Technique.Removable
        "the MLP only reproduces a handful of bias voltages: measure them on an oracle and hardwire";
  }
