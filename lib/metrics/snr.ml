let default_fft_points = 8192

let spectrum ?(n_fft = default_fft_points) ~fs record =
  let n = min n_fft (Array.length record) in
  let n = if Sigkit.Fft.is_pow2 n then n else Sigkit.Fft.next_pow2 n / 2 in
  if n < 64 then invalid_arg "Snr: record too short";
  (* Use the tail of the record: any residual start-up transient decays
     away from the measurement window.  The periodogram only reads its
     input, so a record of exactly [n] samples is passed as it is. *)
  let len = Array.length record in
  let tail = if len = n then record else Array.sub record (len - n) n in
  Sigkit.Spectrum.periodogram ~window:Sigkit.Window.Hann ~fs tail

let snr_from_spectrum spec ~f_signal ~f_lo ~f_hi =
  let signal = Sigkit.Spectrum.tone_power spec ~freq:f_signal in
  let sig_bins = Sigkit.Spectrum.tone_bins spec ~freq:f_signal in
  let noise = Sigkit.Spectrum.band_power_excluding spec ~f_lo ~f_hi ~exclude:[ sig_bins ] in
  if noise <= 0.0 then infinity else Sigkit.Decibel.db_of_power_ratio (signal /. noise)

let of_bandpass ?n_fft ~fs ~f_signal ~osr record =
  let spec = spectrum ?n_fft ~fs record in
  let centre = fs /. 4.0 in
  let half_band = fs /. (2.0 *. float_of_int osr) /. 2.0 in
  snr_from_spectrum spec ~f_signal ~f_lo:(centre -. half_band) ~f_hi:(centre +. half_band)

let of_baseband ?n_fft ~fs ~f_signal ~f_band record =
  let spec = spectrum ?n_fft ~fs record in
  (* Exclude the 0-bin: decimator DC offset is not channel noise. *)
  let f_lo = fs /. float_of_int spec.Sigkit.Spectrum.n in
  snr_from_spectrum spec ~f_signal ~f_lo ~f_hi:f_band

(* Complex-baseband SNR on a two-sided spectrum: bin k of an n-point
   complex FFT covers frequency k*fs/n for k < n/2 and (k-n)*fs/n
   above.  The carrier sits at a signed offset; noise is integrated
   over [-f_band, f_band] minus the carrier lobe and the DC bins. *)
let of_baseband_iq ?(n_fft = 2048) ~fs ~f_signal ~f_band (i_ch, q_ch) =
  let n = min n_fft (min (Array.length i_ch) (Array.length q_ch)) in
  let n = if Sigkit.Fft.is_pow2 n then n else Sigkit.Fft.next_pow2 n / 2 in
  if n < 64 then invalid_arg "Snr.of_baseband_iq: record too short";
  let take ch = Array.sub ch (Array.length ch - n) n in
  (* Shared memo table: read-only here, so no copy is needed. *)
  let window = Sigkit.Window.table Sigkit.Window.Hann n in
  let re = take i_ch and im = take q_ch in
  for k = 0 to n - 1 do
    re.(k) <- re.(k) *. window.(k);
    im.(k) <- im.(k) *. window.(k)
  done;
  Sigkit.Fft.forward re im;
  let power = Sigkit.Fft.magnitude_squared re im in
  let bin_of_freq f =
    let k = int_of_float (Float.round (f *. float_of_int n /. fs)) in
    ((k mod n) + n) mod n
  in
  let centre = bin_of_freq f_signal in
  let lobe = Sigkit.Window.main_lobe_bins Sigkit.Window.Hann in
  (* Peak search around the nominal carrier bin (wrapped). *)
  let peak = ref centre in
  for d = -4 to 4 do
    let k = (centre + d + n) mod n in
    if power.(k) > power.(!peak) then peak := k
  done;
  let in_lobe k =
    let d = abs (((k - !peak + n + (n / 2)) mod n) - (n / 2)) in
    d <= lobe
  in
  let near_dc k =
    let d = abs ((((k + (n / 2)) mod n) - (n / 2))) in
    d <= 1
  in
  let band_bins = int_of_float (Float.round (f_band *. float_of_int n /. fs)) in
  let signal = ref 0.0 and noise = ref 0.0 in
  for d = -band_bins to band_bins do
    let k = (d + n) mod n in
    if in_lobe k then signal := !signal +. power.(k)
    else if not (near_dc k) then noise := !noise +. power.(k)
  done;
  if !noise <= 0.0 then infinity else Sigkit.Decibel.db_of_power_ratio (!signal /. !noise)
