type t = {
  unlocked_snr_db : float;
  correct_key_snr_db : float;
  wrong_key_snrs_db : float list;
  measurements : int;
  alu_operations : int;
  key_bits : int;
}

let snr_of (ctx : Context.t) config =
  (Engine.Service.eval
     (Engine.Request.make
        ~die:(Engine.Request.die_of_receiver ctx.Context.rx)
        ~standard:ctx.Context.standard ~config Engine.Request.Snr_mod))
    .Metrics.Spec.snr_mod_db

let run ?(n_wrong = 6) ?(seed = 404) (ctx : Context.t) =
  let rng = Sigkit.Rng.create seed in
  let locked = Calibration.Onchip.lock_alu rng () in
  let key_bits = Array.length locked.Netlist.Logic_lock.correct_key in
  let plain = Calibration.Onchip.create ctx.Context.rx in
  let unlocked_config = Calibration.Onchip.run plain in
  let correct_config =
    Calibration.Onchip.run
      (Calibration.Onchip.create_locked ctx.Context.rx ~locked_alu:locked
         ~key:locked.Netlist.Logic_lock.correct_key)
  in
  let wrong_key_snrs_db =
    List.init n_wrong (fun _ ->
        let key = Array.init key_bits (fun _ -> Sigkit.Rng.bool rng) in
        let config =
          Calibration.Onchip.run
            (Calibration.Onchip.create_locked ctx.Context.rx ~locked_alu:locked ~key)
        in
        snr_of ctx config)
  in
  {
    unlocked_snr_db = snr_of ctx unlocked_config;
    correct_key_snr_db = snr_of ctx correct_config;
    wrong_key_snrs_db;
    measurements = Calibration.Onchip.measurements plain;
    alu_operations = Calibration.Onchip.alu_operations plain;
    key_bits;
  }

let checks (ctx : Context.t) t =
  let meets = Metrics.Spec.snr_meets ctx.Context.standard in
  [
    ("self-calibration reaches spec", meets t.unlocked_snr_db);
    ( "correct logic key preserves self-calibration",
      Float.abs (t.correct_key_snr_db -. t.unlocked_snr_db) < 0.5 );
    ( "most wrong logic keys leave the chip out of spec",
      let failing = List.length (List.filter (fun s -> not (meets s)) t.wrong_key_snrs_db) in
      2 * failing > List.length t.wrong_key_snrs_db );
  ]

let print ctx t =
  Printf.printf "# Calibration-loop locking [10] on the self-calibrating receiver\n";
  Printf.printf
    "self-calibration (unlocked ALU): SNR %.1f dB in %d measurements, %d gate-level ALU ops\n"
    t.unlocked_snr_db t.measurements t.alu_operations;
  Printf.printf "locked ALU (%d key bits), correct key: SNR %.1f dB\n" t.key_bits
    t.correct_key_snr_db;
  List.iteri
    (fun i snr -> Printf.printf "wrong key %d: self-calibration converged to SNR %6.1f dB\n" i snr)
    t.wrong_key_snrs_db;
  Context.print_checks (checks ctx t)
