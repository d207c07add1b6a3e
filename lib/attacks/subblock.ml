type result = {
  attack : string;
  recovered_fields : string list;
  trials : int;
  best_snr_mod_db : float;
  success : bool;
  oracle_exhausted : bool;
}

let cap_only_attack ?(seed = 0xCA) ~budget refab =
  let rng = Sigkit.Rng.create seed in
  (* The rest of the word stays at a random draw: the attacker does not
     know how to condition the other sub-blocks. *)
  let start = Rfchain.Config.random rng in
  let best_snr = ref neg_infinity in
  let trials = ref 0 in
  let exhausted = ref false in
  let objective config =
    match Oracle.try_key_fast refab config with
    | Error (Oracle.Budget_exhausted _) ->
      (* Watchdog tripped: poison every further probe so the search
         coasts to a stop on its pass counter. *)
      exhausted := true;
      neg_infinity
    | Ok snr ->
      incr trials;
      if snr > !best_snr then best_snr := snr;
      snr
  in
  let _ =
    Calibration.Coordinate_search.maximize ~objective
      ~fields:[ "cap_coarse"; "cap_fine" ]
      ~start
      ~offsets:[ 1; -1; 4; -4; 16; -16; 64; -64 ]
      ~passes:(max 1 (budget / 40)) ()
  in
  {
    attack = "capacitor sub-key only (others random)";
    recovered_fields = [];
    trials = !trials;
    best_snr_mod_db = !best_snr;
    success = Metrics.Spec.snr_meets (Oracle.refab_standard refab) !best_snr;
    oracle_exhausted = !exhausted;
  }

let tapped_attack ?(seed = 0x7A) ~budget standard ~attacker_seed =
  (* Ablation: the attacker's re-fab exposes the tank, so they can run
     the oscillation trick on their own die and recover the capacitor
     and Q-enhancement sub-keys exactly as calibration does. *)
  let chip = Circuit.Process.fabricate ~seed:attacker_seed () in
  let rx = Rfchain.Receiver.create chip standard in
  let rng = Sigkit.Rng.create seed in
  (* If the attacker's own die happens not to oscillate, the trick
     yields nothing: fall back to a blind random start. *)
  let recovered, osc_measurements, start =
    match Calibration.Osc_tune.run rx with
    | Ok osc ->
      ( [ "cap_coarse"; "cap_fine"; "gm_q" ],
        osc.Calibration.Osc_tune.measurements,
        {
          (Rfchain.Config.random rng) with
          cap_coarse = osc.Calibration.Osc_tune.cap_coarse;
          cap_fine = osc.Calibration.Osc_tune.cap_fine;
          gm_q = osc.Calibration.Osc_tune.gm_q;
          (* Mode bits are readable from the netlist's control logic. *)
          fb_enable = true;
          comp_clock_enable = true;
          gmin_enable = true;
          cal_buffer_enable = false;
        } )
    | Error (Calibration.Osc_tune.Tank_silent { measurements; _ }) ->
      ([], measurements, Rfchain.Config.random rng)
  in
  let die = Engine.Request.die_of_receiver rx in
  let best_snr = ref neg_infinity in
  let trials = ref osc_measurements in
  let objective config =
    incr trials;
    let m =
      Engine.Service.eval
        (Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod)
    in
    let snr = m.Metrics.Spec.snr_mod_db in
    if snr > !best_snr then best_snr := snr;
    snr
  in
  let remaining_fields =
    [ "gmin_bias"; "dac_bias"; "preamp_bias"; "comp_bias"; "loop_delay"; "dac_trim"; "preamp_trim"; "vglna_gain" ]
  in
  let _ =
    Calibration.Coordinate_search.maximize ~objective ~fields:remaining_fields ~start
      ~passes:(max 1 (budget / 100)) ()
  in
  {
    attack = "tapped re-fab (oscillation access granted)";
    recovered_fields = recovered;
    trials = !trials;
    best_snr_mod_db = !best_snr;
    success = Metrics.Spec.snr_meets standard !best_snr;
    (* The tapped ablation measures its own die directly — no
       watchdog-armed oracle bench sits in the path. *)
    oracle_exhausted = false;
  }

let remaining_key_space_bits ~recovered =
  let total = Rfchain.Config.key_bits in
  let recovered_width =
    List.fold_left (fun acc name -> acc + Rfchain.Config.field_width name) 0 recovered
  in
  total - recovered_width
