type t = {
  correct_samples : float array;
  deceptive_samples : float array;
  correct_is_bitstream : bool;
  deceptive_is_analog : bool;
}

let is_bitstream samples =
  Array.for_all (fun v -> Float.abs (Float.abs v -. 1.0) < 1e-9) samples

(* Analog: a meaningful fraction of samples away from the rails. *)
let is_analog samples =
  let interior =
    Array.fold_left (fun acc v -> if Float.abs v < 0.9 then acc + 1 else acc) 0 samples
  in
  interior * 4 > Array.length samples

let run ?(window = 64) (ctx : Context.t) =
  let bench = Metrics.Measure.create ctx.Context.rx in
  let slice record = Array.sub record (Array.length record - window) window in
  let correct_samples = slice (Metrics.Measure.mod_output bench ctx.Context.golden) in
  let deceptive = Context.deceptive_example ctx in
  let deceptive_samples = slice (Metrics.Measure.mod_output bench deceptive) in
  {
    correct_samples;
    deceptive_samples;
    correct_is_bitstream = is_bitstream correct_samples;
    deceptive_is_analog = is_analog deceptive_samples;
  }

let checks t =
  [
    ("correct key output is a +-1 bitstream", t.correct_is_bitstream);
    ("deceptive key output is an analog waveform", t.deceptive_is_analog);
  ]

let print t =
  Printf.printf "# Fig. 8 — transient modulator output (steady-state window)\n";
  Printf.printf "# sample  correct  deceptive\n";
  Array.iteri
    (fun i v -> Printf.printf "%7d  %7.3f  %9.4f\n" i v t.deceptive_samples.(i))
    t.correct_samples;
  let wave marker samples =
    Ascii_plot.series ~marker
      (Array.to_list (Array.mapi (fun i v -> (float_of_int i, v)) samples))
  in
  Printf.printf "\ncorrect key (bitstream):\n";
  Ascii_plot.print
    (Ascii_plot.render ~height:9 ~x_label:"sample" ~y_range:(-1.3, 1.3) (wave '#' t.correct_samples));
  Printf.printf "deceptive key (analog waveform):\n";
  Ascii_plot.print
    (Ascii_plot.render ~height:9 ~x_label:"sample" ~y_range:(-1.3, 1.3) (wave '*' t.deceptive_samples));
  Context.print_checks (checks t)
