type per_die = {
  seed : int;
  key : Rfchain.Config.t;
  snr_mod_db : float;
  snr_rx_db : float;
  sfdr_db : float;
  in_spec : bool;
}

type t = {
  dice : per_die list;
  calibrated_yield : float;
  median_key : Rfchain.Config.t;
  uncalibrated_yield : float;
  transfer_rate : float;
  min_pair_distance : int;
  mean_pair_distance : float;
  field_spread : (string * int) list;
}

let calibrate_die standard seed =
  (* Cancellation point per die of the lot. *)
  Telemetry.Cancel.poll ();
  let chip = Circuit.Process.fabricate ~seed () in
  let rx = Rfchain.Receiver.create chip standard in
  let report = (Calibration.Calibrate.run ~passes:1 ~max_retries:0 rx).Calibration.Calibrate.report in
  let m =
    {
      Metrics.Spec.snr_mod_db = report.Calibration.Calibrate.snr_mod_db;
      snr_rx_db = report.Calibration.Calibrate.snr_rx_db;
      sfdr_db = Some report.Calibration.Calibrate.sfdr_db;
    }
  in
  {
    seed;
    key = report.Calibration.Calibrate.key;
    snr_mod_db = report.Calibration.Calibrate.snr_mod_db;
    snr_rx_db = report.Calibration.Calibrate.snr_rx_db;
    sfdr_db = report.Calibration.Calibrate.sfdr_db;
    in_spec = Metrics.Spec.functional standard m;
  }

let median_of xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

let median_key dice =
  List.fold_left
    (fun acc field ->
      let codes = List.map (fun d -> Rfchain.Config.field d.key field) dice in
      Rfchain.Config.with_field acc field (median_of codes))
    Rfchain.Config.nominal Rfchain.Config.field_names

let pairs xs =
  List.concat_map (fun (i, a) -> List.filter_map (fun (j, b) -> if i < j then Some (a, b) else None)
                      (List.mapi (fun j b -> (j, b)) xs))
    (List.mapi (fun i a -> (i, a)) xs)

let run ?(lot = 8) ?(seed_base = 6000) standard =
  if lot < 2 then invalid_arg "Lot_study.run: lot too small";
  (* Die calibrations are independent full 14-step runs — the lot's
     widest fan-out.  Stream them across the engine's lanes as one
     job-level grid; index assembly keeps the lot in seed order, and
     each calibration's own engine calls take the inline
     (main-lane) or off-main (worker-lane) path automatically. *)
  let dice = Engine.Service.map_jobs (fun i -> calibrate_die standard (seed_base + i)) lot in
  let in_spec = List.filter (fun d -> d.in_spec) dice in
  let median = median_key dice in
  (* Lot-median yield and the off-diagonal transfer matrix are both
     independent (die, key) evaluations: one engine batch each. *)
  let uncal_flags =
    Core.Threat_model.evaluate_many standard (List.map (fun d -> (d.seed, median)) dice)
  in
  let uncal = List.filter_map Fun.id (List.map2 (fun d ok -> if ok then Some d else None) dice uncal_flags) in
  let transfer_flags =
    Core.Threat_model.evaluate_many standard
      (List.concat_map
         (fun donor ->
           List.filter_map
             (fun target ->
               if donor.seed = target.seed then None else Some (target.seed, donor.key))
             dice)
         dice)
  in
  let transfers = List.length (List.filter Fun.id transfer_flags) in
  let attempts = List.length transfer_flags in
  let distances = List.map (fun (a, b) -> Rfchain.Config.hamming_distance a.key b.key) (pairs dice) in
  let field_spread =
    List.map
      (fun field ->
        let codes = List.sort_uniq compare (List.map (fun d -> Rfchain.Config.field d.key field) dice) in
        (field, List.length codes))
      Rfchain.Config.field_names
  in
  {
    dice;
    calibrated_yield = float_of_int (List.length in_spec) /. float_of_int lot;
    median_key = median;
    uncalibrated_yield = float_of_int (List.length uncal) /. float_of_int lot;
    transfer_rate = float_of_int transfers /. float_of_int (max 1 attempts);
    min_pair_distance = List.fold_left min 64 distances;
    mean_pair_distance =
      List.fold_left ( +. ) 0.0 (List.map float_of_int distances)
      /. float_of_int (max 1 (List.length distances));
    field_spread;
  }

let checks t =
  [
    (* Weak-tail dice are binned out in production; high-80s yields
       are the realistic expectation. *)
    ("calibrated yield is high (>= 75%)", t.calibrated_yield >= 0.75);
    ("one fixed key does not make a product (uncalibrated yield <= 50%)", t.uncalibrated_yield <= 0.5);
    ("keys rarely transfer between dice (<= 35%)", t.transfer_rate <= 0.35);
    ("every key pair differs in several bits", t.min_pair_distance >= 3);
    ( "the capacitor sub-keys spread across the lot",
      match List.assoc_opt "cap_fine" t.field_spread with
      | Some n -> n >= (List.length t.dice + 1) / 2
      | None -> false );
  ]

let print t =
  Printf.printf "# Production-lot study (%d dice)\n" (List.length t.dice);
  Printf.printf "# seed    SNR(mod)  SNR(rx)  SFDR   in-spec  key\n";
  List.iter
    (fun d ->
      Printf.printf "%6d   %7.1f  %7.1f  %5.1f  %-7s  0x%016Lx\n" d.seed d.snr_mod_db d.snr_rx_db
        d.sfdr_db
        (if d.in_spec then "yes" else "NO")
        (Rfchain.Config.to_bits d.key))
    t.dice;
  Printf.printf "calibrated yield      : %.0f%%\n" (100.0 *. t.calibrated_yield);
  Printf.printf "uncalibrated yield    : %.0f%% (lot-median key 0x%016Lx)\n"
    (100.0 *. t.uncalibrated_yield)
    (Rfchain.Config.to_bits t.median_key);
  Printf.printf "key transfer rate     : %.0f%% of (donor, target) pairs\n" (100.0 *. t.transfer_rate);
  Printf.printf "pairwise key distance : min %d, mean %.1f bits\n" t.min_pair_distance
    t.mean_pair_distance;
  Printf.printf "per-field code spread :";
  List.iter (fun (f, n) -> if n > 1 then Printf.printf " %s:%d" f n) t.field_spread;
  print_newline ();
  Context.print_checks (checks t)
