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

(* One counted trial of the single-tone test at [n] points: the tone's
   frequency and its stimulus. *)
let tone_trial t ~p_dbm ~n =
  t.trials <- t.trials + 1;
  Telemetry.Counter.incr trials_counter;
  let fs = Rfchain.Receiver.fs t.rx in
  let f_in = Rfchain.Receiver.test_tone_frequency t.rx ~n in
  (f_in, Sigkit.Waveform.dbm_tone ~p_dbm ~freq:f_in ~fs ())

(* The modulator-tap capture of the single-tone test. *)
let tone_mod t config ~p_dbm =
  let n = Snr.default_fft_points in
  let f_in, stimulus = tone_trial t ~p_dbm ~n in
  (f_in, Rfchain.Receiver.capture_modulator t.rx ~analog:config ~stimulus ~n ())

let mod_output t config = snd (tone_mod t config ~p_dbm:t.p_dbm)

let snr_mod_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod" (fun () ->
      let f_in, record = tone_mod t config ~p_dbm:t.p_dbm in
      Snr.of_bandpass ~fs:(Rfchain.Receiver.fs t.rx) ~f_signal:f_in ~osr record)

let tone_power_at t config ~p_dbm =
  let f_in, record = tone_mod t config ~p_dbm in
  let spec = Sigkit.Spectrum.periodogram ~fs:(Rfchain.Receiver.fs t.rx) record in
  Sigkit.Spectrum.tone_power spec ~freq:f_in

let snr_mod_verified_db t config =
  Telemetry.Span.with_ ~name:"measure.snr_mod_verified" (fun () ->
      (* The 6 dB-down record first, so the two full-power captures
         run back to back and the second finds its front half still
         in the slot.  Each capture is a pure function of its inputs,
         so the order changes no value. *)
      let p_lo = tone_power_at t config ~p_dbm:(t.p_dbm -. 6.0) in
      let p_hi = tone_power_at t config ~p_dbm:t.p_dbm in
      let drop_db = Sigkit.Decibel.db_of_power_ratio (p_hi /. Float.max 1e-300 p_lo) in
      if Float.abs (drop_db -. 6.0) > 3.0 then neg_infinity
      else
        (* Linearity confirmed; the full-power record's SNR stands.
           Re-measure to return it (counted: it is one more capture). *)
        snr_mod_db t config)

let baseband_snr t config ~p_dbm ~n_fft =
  Telemetry.Span.with_ ~name:"measure.snr_rx" (fun () ->
      let ratio = Rfchain.Decimator.ratio Rfchain.Decimator.default_config in
      let n = n_fft * ratio in
      let f_in, stimulus = tone_trial t ~p_dbm ~n in
      let iq = Rfchain.Receiver.capture_baseband t.rx ~analog:config ~stimulus ~n () in
      let fs = Rfchain.Receiver.fs t.rx in
      let band = Rfchain.Standards.band_hz (Rfchain.Receiver.standard t.rx) in
      Snr.of_baseband_iq ~n_fft ~fs:(Rfchain.Receiver.fs_baseband t.rx)
        ~f_signal:(f_in -. (fs /. 4.0))
        ~f_band:(band /. 2.0)
        iq)

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
      let record = Rfchain.Receiver.capture_modulator t.rx ~analog:config ~stimulus ~n () in
      Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr record)

let full t config =
  {
    Spec.snr_mod_db = snr_mod_db t config;
    snr_rx_db = snr_rx_db t config;
    sfdr_db = Some (sfdr_db t config);
  }
