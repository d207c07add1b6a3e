type t = {
  rx : Rfchain.Receiver.t;
  p_dbm : float;
  mutable trials : int;
}

let create ?(p_dbm = -25.0) rx = { rx; p_dbm; trials = 0 }

let trial_count t = t.trials

(* The process-wide bench odometer: every measurement on every bench,
   the denominator of all oracle-query accounting. *)
let trials_counter = Telemetry.Counter.make "measure.trials"

let global_trial_count () = Telemetry.Counter.value trials_counter

let osr = Rfchain.Standards.oversampling_ratio

let run_tone t config ~p_dbm ~n =
  t.trials <- t.trials + 1;
  Telemetry.Counter.incr trials_counter;
  let fs = Rfchain.Receiver.fs t.rx in
  let f_in = Rfchain.Receiver.test_tone_frequency t.rx ~n in
  let stimulus = Sigkit.Waveform.dbm_tone ~p_dbm ~freq:f_in ~fs () in
  (f_in, Rfchain.Receiver.run_stimulus t.rx ~analog:config ~stimulus ~n ())

let mod_output t config =
  let _, res = run_tone t config ~p_dbm:t.p_dbm ~n:Snr.default_fft_points in
  res.Rfchain.Receiver.mod_output

let snr_mod_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod" (fun () ->
      let f_in, res = run_tone t config ~p_dbm:t.p_dbm ~n:Snr.default_fft_points in
      Snr.of_bandpass ~fs:res.Rfchain.Receiver.fs ~f_signal:f_in ~osr
        res.Rfchain.Receiver.mod_output)

let tone_power_at t config ~p_dbm =
  let f_in, res = run_tone t config ~p_dbm ~n:Snr.default_fft_points in
  let spec =
    Sigkit.Spectrum.periodogram ~fs:res.Rfchain.Receiver.fs res.Rfchain.Receiver.mod_output
  in
  Sigkit.Spectrum.tone_power spec ~freq:f_in

let snr_mod_verified_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod_verified" (fun () ->
      let p_hi = tone_power_at t config ~p_dbm:t.p_dbm in
      let p_lo = tone_power_at t config ~p_dbm:(t.p_dbm -. 6.0) in
      let drop_db = Sigkit.Decibel.db_of_power_ratio (p_hi /. Float.max 1e-300 p_lo) in
      if Float.abs (drop_db -. 6.0) > 3.0 then neg_infinity
      else
        (* Linearity confirmed; the first record's SNR stands.  Re-measure
           to return it (counted: it is one more capture). *)
        snr_mod_db t config)

let baseband_snr t config ~p_dbm ~n_fft =
  Telemetry.Span.with_ ~name:"measure.snr_rx" (fun () ->
      let ratio = Rfchain.Decimator.ratio Rfchain.Decimator.default_config in
      let n = n_fft * ratio in
      let f_in, res = run_tone t config ~p_dbm ~n in
      let fs = res.Rfchain.Receiver.fs in
      let band = Rfchain.Standards.band_hz (Rfchain.Receiver.standard t.rx) in
      Snr.of_baseband_iq ~n_fft ~fs:res.Rfchain.Receiver.fs_baseband
        ~f_signal:(f_in -. (fs /. 4.0))
        ~f_band:(band /. 2.0)
        (res.Rfchain.Receiver.baseband_i, res.Rfchain.Receiver.baseband_q))

let snr_rx_db ?(n_fft = 2048) t config = baseband_snr t config ~p_dbm:t.p_dbm ~n_fft

let snr_rx_at_power_db ?(n_fft = 1024) t config ~p_dbm ~gain_code =
  let config = { config with Rfchain.Config.vglna_gain = gain_code } in
  baseband_snr t config ~p_dbm ~n_fft

let sfdr_db t config =
  t.trials <- t.trials + 1;
  Telemetry.Counter.incr trials_counter;
  Telemetry.Span.with_ ~name:"measure.sfdr" (fun () ->
      let n = Snr.default_fft_points in
      let fs = Rfchain.Receiver.fs t.rx in
      let standard = Rfchain.Receiver.standard t.rx in
      let f1, f2 = Sfdr.tones_for ~f0:standard.Rfchain.Standards.f0_hz ~fs ~n in
      let stimulus = Sigkit.Waveform.dbm_two_tone ~p_dbm:t.p_dbm ~f1 ~f2 ~fs in
      let res = Rfchain.Receiver.run_stimulus t.rx ~analog:config ~stimulus ~n () in
      Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr res.Rfchain.Receiver.mod_output)

let full t config =
  {
    Spec.snr_mod_db = snr_mod_db t config;
    snr_rx_db = snr_rx_db t config;
    sfdr_db = Some (sfdr_db t config);
  }
