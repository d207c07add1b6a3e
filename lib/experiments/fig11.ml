type t = {
  correct : Metrics.Dynamic_range.segment list;
  deceptive : Metrics.Dynamic_range.segment list;
  dr_correct_db : float;
  dr_deceptive_db : float;
}

let run ?(n_fft = 1024) (ctx : Context.t) =
  let die = Engine.Request.die_of_receiver ctx.Context.rx in
  let standard = ctx.Context.standard in
  let sweep config =
    Telemetry.Cancel.poll ();
    (* Every point of the three-segment power sweep as one streamed
       engine grid: all segments' points are in flight at once, and
       index assembly keeps the returned SNRs in point order. *)
    let measure_batch points =
      Engine.Service.eval_batch
        (List.map
           (fun (p_dbm, gain_code) ->
             Engine.Request.make ~die ~standard ~config
               (Engine.Request.Snr_rx_at_power { n_fft; p_dbm; gain_code }))
           points)
      |> List.map (fun m -> m.Metrics.Spec.snr_rx_db)
    in
    Metrics.Dynamic_range.sweep_batch ~measure_batch
  in
  let correct = sweep ctx.Context.golden in
  let deceptive = sweep (Context.deceptive_example ctx) in
  (* Usable-communication threshold for the dynamic-range figure: the
     spec SNR applies at the reference -25 dBm point, not across the
     whole input range. *)
  let usable_snr_db = 25.0 in
  {
    correct;
    deceptive;
    dr_correct_db = Metrics.Dynamic_range.dynamic_range_db correct ~min_snr_db:usable_snr_db;
    dr_deceptive_db = Metrics.Dynamic_range.dynamic_range_db deceptive ~min_snr_db:usable_snr_db;
  }

let checks (ctx : Context.t) t =
  ignore ctx;
  let peak segs =
    List.fold_left
      (fun acc s ->
        List.fold_left (fun acc p -> Float.max acc p.Metrics.Dynamic_range.snr_db) acc
          s.Metrics.Dynamic_range.points)
      neg_infinity segs
  in
  [
    ("correct key covers a wide dynamic range (>= 50 dB usable)", t.dr_correct_db >= 50.0);
    ("locked circuit has (almost) no usable range (<= 10 dB)", t.dr_deceptive_db <= 10.0);
    ("correct peak SNR exceeds locked peak by > 20 dB", peak t.correct -. peak t.deceptive > 20.0);
  ]

let print ctx t =
  Printf.printf "# Fig. 11 — SNR vs input power (5 dBm steps, three VGLNA segments)\n";
  let print_run label segs =
    Printf.printf "## %s\n# p_dbm  gain_code  snr_db\n" label;
    List.iter
      (fun s ->
        Printf.printf "# segment %s\n" s.Metrics.Dynamic_range.label;
        List.iter
          (fun p ->
            Printf.printf "%7.1f  %9d  %7.2f\n" p.Metrics.Dynamic_range.p_dbm
              p.Metrics.Dynamic_range.gain_code p.Metrics.Dynamic_range.snr_db)
          s.Metrics.Dynamic_range.points)
      segs
  in
  print_run "correct key" t.correct;
  print_run "deceptive (locked) key" t.deceptive;
  let points marker segs =
    List.concat_map
      (fun s ->
        List.map (fun p -> (p.Metrics.Dynamic_range.p_dbm, p.Metrics.Dynamic_range.snr_db))
          s.Metrics.Dynamic_range.points)
      segs
    |> Ascii_plot.series ~marker
  in
  Printf.printf "\nSNR vs input power (o = correct, x = locked)\n";
  Ascii_plot.print
    (Ascii_plot.render ~height:16 ~x_label:"input power (dBm)" ~y_label:"SNR (dB)"
       (points 'o' t.correct @ points 'x' t.deceptive));
  Printf.printf "dynamic range: correct %.0f dB, locked %.0f dB\n" t.dr_correct_db
    t.dr_deceptive_db;
  Context.print_checks (checks ctx t)
