type t = {
  freqs_hz : float array;
  correct_psd_db : float array;
  deceptive_psd_db : float array;
  notch_depth_correct_db : float;
  notch_depth_deceptive_db : float;
}

(* Average the periodogram into display bins, skipping the carrier's
   main lobe so the notch (not the tone) is what the figure shows. *)
let reduce spec ~f_signal ~points =
  let power = spec.Sigkit.Spectrum.power in
  let n = Array.length power in
  let sig_lo, sig_hi = Sigkit.Spectrum.tone_bins spec ~freq:f_signal in
  let per = max 1 (n / points) in
  let freqs = Array.make points 0.0 and psd = Array.make points neg_infinity in
  for p = 0 to points - 1 do
    let lo = p * per and hi = min (n - 1) (((p + 1) * per) - 1) in
    let acc = ref 0.0 and cnt = ref 0 in
    for k = lo to hi do
      if k < sig_lo || k > sig_hi then begin
        acc := !acc +. power.(k);
        incr cnt
      end
    done;
    freqs.(p) <- Sigkit.Spectrum.freq_of_bin spec ((lo + hi) / 2);
    psd.(p) <-
      (if !cnt = 0 then neg_infinity
       else Sigkit.Decibel.db_of_power_ratio (!acc /. float_of_int !cnt))
  done;
  (freqs, psd)

let notch_depth spec ~fs ~f0 ~f_signal =
  let sig_lo, sig_hi = Sigkit.Spectrum.tone_bins spec ~freq:f_signal in
  let mean_band f_lo f_hi =
    let lo = Sigkit.Spectrum.bin_of_freq spec f_lo and hi = Sigkit.Spectrum.bin_of_freq spec f_hi in
    let acc = ref 0.0 and cnt = ref 0 in
    for k = lo to hi do
      if k < sig_lo || k > sig_hi then begin
        acc := !acc +. spec.Sigkit.Spectrum.power.(k);
        incr cnt
      end
    done;
    !acc /. float_of_int (max 1 !cnt)
  in
  (* Notch floor: +-10 MHz around the carrier; shoulders: fs/16 away,
     where 4th-order shaping towers over the floor.  Taking the WEAKER
     shoulder keeps one-sided broadband tilts (the deceptive key's
     buffer low-pass) from masquerading as shaping — real noise shaping
     raises both shoulders symmetrically. *)
  let notch = mean_band (f0 -. 10e6) (f0 +. 10e6) in
  let shoulder_lo = mean_band (f0 -. (fs /. 16.0)) (f0 -. (fs /. 20.0)) in
  let shoulder_hi = mean_band (f0 +. (fs /. 20.0)) (f0 +. (fs /. 16.0)) in
  Sigkit.Decibel.db_of_power_ratio (Float.min shoulder_lo shoulder_hi /. notch)

let run ?(points = 96) (ctx : Context.t) =
  let bench = Metrics.Measure.create ctx.Context.rx in
  let fs = Rfchain.Receiver.fs ctx.Context.rx in
  let f0 = ctx.Context.standard.Rfchain.Standards.f0_hz in
  let f_signal = Rfchain.Receiver.test_tone_frequency ctx.Context.rx ~n:Metrics.Snr.default_fft_points in
  let spectrum_of config =
    Sigkit.Spectrum.periodogram ~fs (Metrics.Measure.mod_output bench config)
  in
  let correct_spec = spectrum_of ctx.Context.golden in
  let deceptive_spec = spectrum_of (Context.deceptive_example ctx) in
  let freqs_hz, correct_psd_db = reduce correct_spec ~f_signal ~points in
  let _, deceptive_psd_db = reduce deceptive_spec ~f_signal ~points in
  {
    freqs_hz;
    correct_psd_db;
    deceptive_psd_db;
    notch_depth_correct_db = notch_depth correct_spec ~fs ~f0 ~f_signal;
    notch_depth_deceptive_db = notch_depth deceptive_spec ~fs ~f0 ~f_signal;
  }

let checks t =
  [
    ("correct key shows a noise-shaping notch (> 20 dB)", t.notch_depth_correct_db > 20.0);
    ("deceptive key shows no noise shaping (< 10 dB)", t.notch_depth_deceptive_db < 10.0);
  ]

let print t =
  Printf.printf "# Fig. 10 — PSD at modulator output (carrier lobe excluded)\n";
  Printf.printf "# freq_GHz  correct_dB  deceptive_dB\n";
  Array.iteri
    (fun i f ->
      Printf.printf "%9.4f  %10.2f  %12.2f\n" (f /. 1e9) t.correct_psd_db.(i)
        t.deceptive_psd_db.(i))
    t.freqs_hz;
  let curve marker values =
    Array.to_list (Array.mapi (fun i f -> (f /. 1e9, values i)) t.freqs_hz)
    |> List.filter (fun (_, y) -> Float.is_finite y)
    |> Ascii_plot.series ~marker
  in
  Printf.printf "\nPSD (o = correct key with its notch, x = deceptive key)\n";
  Ascii_plot.print
    (Ascii_plot.render ~height:16 ~x_label:"GHz" ~y_label:"PSD (dB)"
       (curve 'o' (fun i -> t.correct_psd_db.(i)) @ curve 'x' (fun i -> t.deceptive_psd_db.(i))));
  Printf.printf "notch depth: correct %.1f dB, deceptive %.1f dB\n" t.notch_depth_correct_db
    t.notch_depth_deceptive_db;
  Context.print_checks (checks t)
