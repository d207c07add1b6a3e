let snr_trial_seconds = 20.0 *. 60.0
let dr_sweep_trial_seconds = 3.0 *. 3600.0
let sfdr_trial_seconds = 30.0 *. 60.0
let hardware_trial_seconds = 1.0

let key_space = 2.0 ** float_of_int Rfchain.Config.key_bits

(* The paper argues very few key combinations are functional; a handful
   of valid words leaves the expectation at ~2^63 trials. *)
let expected_brute_force_trials = key_space /. 2.0

let seconds_to_human s =
  let minute = 60.0 and hour = 3600.0 and day = 86400.0 in
  let year = 365.25 *. day in
  if s < minute then Printf.sprintf "%.1f s" s
  else if s < hour then Printf.sprintf "%.1f min" (s /. minute)
  else if s < day then Printf.sprintf "%.1f h" (s /. hour)
  else if s < year then Printf.sprintf "%.1f days" (s /. day)
  else Printf.sprintf "%.2e years" (s /. year)

type row = {
  attack : string;
  trial_seconds : float;
  trials : float;
  total_seconds : float;
}

let row ~attack ~trial_seconds ~trials =
  { attack; trial_seconds; trials; total_seconds = trial_seconds *. trials }

let brute_force_table () =
  [
    row ~attack:"brute force, SNR trials (simulation)" ~trial_seconds:snr_trial_seconds
      ~trials:expected_brute_force_trials;
    row ~attack:"brute force, DR-sweep trials (simulation)" ~trial_seconds:dr_sweep_trial_seconds
      ~trials:expected_brute_force_trials;
    row ~attack:"brute force, SFDR trials (simulation)" ~trial_seconds:sfdr_trial_seconds
      ~trials:expected_brute_force_trials;
    row ~attack:"brute force, re-fabbed hardware (1 s/trial)"
      ~trial_seconds:hardware_trial_seconds ~trials:expected_brute_force_trials;
  ]

let pp_row fmt r =
  Format.fprintf fmt "%-45s %10s/trial  %.2e trials  -> %s" r.attack
    (seconds_to_human r.trial_seconds) r.trials (seconds_to_human r.total_seconds)
