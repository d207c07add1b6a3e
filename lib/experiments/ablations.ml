type slicing = {
  deceptive_snr_rx_sliced_db : float;
  deceptive_snr_rx_unsliced_db : float;
}

type variation = {
  transfer_snr_with_variation_db : float;
  transfer_snr_without_variation_db : float;
  own_snr_db : float;
}

type t = {
  slicing : slicing;
  variation : variation;
}

let rx_snr ?(slice = true) rx config ~n_fft =
  let fs = Rfchain.Receiver.fs rx in
  let ratio = Rfchain.Decimator.ratio Rfchain.Decimator.default_config in
  let n = n_fft * ratio in
  let f_in = Rfchain.Receiver.test_tone_frequency rx ~n in
  let input = Sigkit.Waveform.tone_dbm ~p_dbm:(-25.0) ~freq:f_in ~fs n in
  let res = Rfchain.Receiver.run rx ~analog:config ~slice ~input () in
  let band = Rfchain.Standards.band_hz (Rfchain.Receiver.standard rx) in
  Metrics.Snr.of_baseband ~n_fft ~fs:res.Rfchain.Receiver.fs_baseband
    ~f_signal:(f_in -. (fs /. 4.0))
    ~f_band:(band /. 2.0) res.Rfchain.Receiver.baseband_i

let run (ctx : Context.t) =
  let deceptive = Context.deceptive_example ctx in
  let slicing =
    {
      deceptive_snr_rx_sliced_db = rx_snr ctx.Context.rx deceptive ~n_fft:2048;
      deceptive_snr_rx_unsliced_db = rx_snr ~slice:false ctx.Context.rx deceptive ~n_fft:2048;
    }
  in
  (* Key transfer: calibrate die A, apply its key to die B — once on
     the real (varying) process, once on an ideal process. *)
  let snr_on chip config =
    (Engine.Service.eval
       (Engine.Request.make
          ~die:(Engine.Request.die_of_chip chip)
          ~standard:ctx.Context.standard ~config Engine.Request.Snr_mod))
      .Metrics.Spec.snr_mod_db
  in
  let transfer ~lot_sigma_scale =
    let fabricate seed = Circuit.Process.fabricate ~lot_sigma_scale ~seed () in
    let rx_a = Rfchain.Receiver.create (fabricate 4242) ctx.Context.standard in
    let key_a = Calibration.Calibrate.quick rx_a in
    (key_a, snr_on (fabricate 4343) key_a)
  in
  let key_a, with_variation = transfer ~lot_sigma_scale:1.0 in
  let _, without_variation = transfer ~lot_sigma_scale:0.0 in
  let own = snr_on (Circuit.Process.fabricate ~seed:4242 ()) key_a in
  {
    slicing;
    variation =
      {
        transfer_snr_with_variation_db = with_variation;
        transfer_snr_without_variation_db = without_variation;
        own_snr_db = own;
      };
  }

let checks (ctx : Context.t) t =
  let meets = Metrics.Spec.snr_meets ctx.Context.standard in
  [
    ( "slicing collapses the deceptive key (sliced < 10 dB)",
      t.slicing.deceptive_snr_rx_sliced_db < 10.0 );
    ( "without slicing the deceptive key would survive (> sliced + 10 dB)",
      t.slicing.deceptive_snr_rx_unsliced_db > t.slicing.deceptive_snr_rx_sliced_db +. 10.0 );
    ( "with process variation a stolen key misses spec on another die",
      not (meets t.variation.transfer_snr_with_variation_db) );
    ( "without process variation keys transfer freely",
      meets t.variation.transfer_snr_without_variation_db );
  ]

let print ctx t =
  Printf.printf "# Ablations\n";
  Printf.printf "## digital 1-bit slicing (behind Fig. 9)\n";
  Printf.printf "deceptive key SNR(rx): %.1f dB sliced, %.1f dB with slicing disabled\n"
    t.slicing.deceptive_snr_rx_sliced_db t.slicing.deceptive_snr_rx_unsliced_db;
  Printf.printf "## per-chip process variation (key transferability)\n";
  Printf.printf "die A key on die A: %.1f dB; on die B: %.1f dB (nominal process), %.1f dB (variation off)\n"
    t.variation.own_snr_db t.variation.transfer_snr_with_variation_db
    t.variation.transfer_snr_without_variation_db;
  Context.print_checks (checks ctx t)
