type point = {
  hours : float;
  snr_db : float;
  in_spec : bool;
  recalibrated_snr_db : float;
  key_drift_bits : int;
}

type t = {
  fresh_snr_db : float;
  points : point list;
}

let snr_of ~standard die config =
  (Engine.Service.eval (Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod))
    .Metrics.Spec.snr_mod_db

let run ?(hours = [ 1e3; 2e4; 1e5 ]) (ctx : Context.t) =
  let standard = ctx.Context.standard in
  let fresh_snr_db =
    snr_of ~standard (Engine.Request.die_of_receiver ctx.Context.rx) ctx.Context.golden
  in
  let point h =
    (* Cancellation point per aging step. *)
    Telemetry.Cancel.poll ();
    (* The aged die has its own engine identity (the fingerprint folds
       in age_hours), so aged-key measurements cache independently of
       the fresh die's. *)
    let aged_chip = Circuit.Process.age ctx.Context.chip ~hours:h in
    let aged_rx = Rfchain.Receiver.create aged_chip ctx.Context.standard in
    let snr_db = snr_of ~standard (Engine.Request.die_of_chip aged_chip) ctx.Context.golden in
    let recal = (Calibration.Calibrate.run ~passes:1 ~max_retries:0 aged_rx).Calibration.Calibrate.report in
    {
      hours = h;
      snr_db;
      in_spec = Metrics.Spec.snr_meets standard snr_db;
      recalibrated_snr_db = recal.Calibration.Calibrate.snr_mod_db;
      key_drift_bits =
        Rfchain.Config.hamming_distance ctx.Context.golden recal.Calibration.Calibrate.key;
    }
  in
  { fresh_snr_db; points = List.map point hours }

let checks t =
  let last = List.nth t.points (List.length t.points - 1) in
  let monotone_loss =
    let rec check prev = function
      | [] -> true
      | p :: rest -> p.snr_db <= prev +. 1.0 && check p.snr_db rest
    in
    check t.fresh_snr_db t.points
  in
  [
    ("aging monotonically erodes the original key's SNR", monotone_loss);
    ("a decade of use costs real margin (> 1.5 dB)", t.fresh_snr_db -. last.snr_db > 1.5);
    ( "re-calibration recovers the aged die",
      List.for_all (fun p -> p.recalibrated_snr_db >= p.snr_db -. 0.5) t.points );
    ( "the recovered key differs from the provisioned one (detection signature)",
      last.key_drift_bits > 0 );
  ]

let print t =
  Printf.printf "# Aging and recycled-part study\n";
  Printf.printf "fresh die, provisioned key: SNR %.1f dB\n" t.fresh_snr_db;
  Printf.printf "# hours    SNR(old key)  in-spec  SNR(recal)  key drift (bits)\n";
  List.iter
    (fun p ->
      Printf.printf "%8.0f   %10.1f    %-7s  %8.1f    %d\n" p.hours p.snr_db
        (if p.in_spec then "yes" else "NO")
        p.recalibrated_snr_db p.key_drift_bits)
    t.points;
  Context.print_checks (checks t)
