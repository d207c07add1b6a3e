type point = {
  p_dbm : float;
  sfdr_correct_db : float;
  sfdr_deceptive_db : float;
}

type t = {
  points : point list;
  mean_gap_db : float;
}

let default_powers = [ -40.0; -35.0; -30.0; -25.0; -20.0; -15.0 ]

let run ?(powers = default_powers) (ctx : Context.t) =
  let deceptive = Context.deceptive_example ctx in
  let die = Engine.Request.die_of_receiver ctx.Context.rx in
  let standard = ctx.Context.standard in
  (* Both keys at every power as one engine batch (the two SFDR
     captures per point are independent). *)
  let sfdrs =
    Engine.Service.eval_batch
      (List.concat_map
         (fun p_dbm ->
           List.map
             (fun config ->
               Engine.Request.make ~p_dbm ~die ~standard ~config Engine.Request.Sfdr)
             [ ctx.Context.golden; deceptive ])
         powers)
    |> List.map (fun m -> Option.get m.Metrics.Spec.sfdr_db)
  in
  let rec points powers sfdrs =
    match powers, sfdrs with
    | [], [] -> []
    | p_dbm :: powers, sfdr_correct_db :: sfdr_deceptive_db :: sfdrs ->
      { p_dbm; sfdr_correct_db; sfdr_deceptive_db } :: points powers sfdrs
    | _ -> invalid_arg "Fig12: batch result shape mismatch"
  in
  let points = points powers sfdrs in
  let gaps = List.map (fun p -> p.sfdr_correct_db -. p.sfdr_deceptive_db) points in
  {
    points;
    mean_gap_db = List.fold_left ( +. ) 0.0 gaps /. float_of_int (max 1 (List.length gaps));
  }

let checks (ctx : Context.t) t =
  let meets = Metrics.Spec.sfdr_meets ctx.Context.standard in
  let at_25 = List.find_opt (fun p -> p.p_dbm = -25.0) t.points in
  [
    ( "correct key meets the SFDR spec at -25 dBm",
      match at_25 with
      | Some p -> meets p.sfdr_correct_db
      | None -> false );
    ( "locked circuit misses the SFDR spec at -25 dBm",
      match at_25 with
      | Some p -> not (meets p.sfdr_deceptive_db)
      | None -> false );
    ("locked SFDR is much lower on average (> 10 dB gap)", t.mean_gap_db > 10.0);
  ]

let print ctx t =
  Printf.printf "# Fig. 12 — two-tone SFDR (tones 10 MHz apart, equal power)\n";
  Printf.printf "# p_dbm  sfdr_correct_db  sfdr_locked_db\n";
  List.iter
    (fun p -> Printf.printf "%7.1f  %15.2f  %14.2f\n" p.p_dbm p.sfdr_correct_db p.sfdr_deceptive_db)
    t.points;
  Printf.printf "\nSFDR vs input power (o = correct, x = locked)\n";
  Ascii_plot.print
    (Ascii_plot.render ~height:14 ~x_label:"tone power (dBm)" ~y_label:"SFDR (dB)"
       (Ascii_plot.series ~marker:'o' (List.map (fun p -> (p.p_dbm, p.sfdr_correct_db)) t.points)
       @ Ascii_plot.series ~marker:'x' (List.map (fun p -> (p.p_dbm, p.sfdr_deceptive_db)) t.points)));
  Printf.printf "mean SFDR gap: %.1f dB\n" t.mean_gap_db;
  Context.print_checks (checks ctx t)
