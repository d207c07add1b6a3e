type die = {
  chip : Circuit.Process.chip;
  fabric : (Rfchain.Config.t -> Rfchain.Config.t) option;
  rf_fault : (float array -> float array) option;
  die_id : string option;
}

type metric =
  | Snr_mod
  | Snr_mod_verified
  | Snr_rx of { n_fft : int }
  | Snr_rx_at_power of { n_fft : int; p_dbm : float; gain_code : int }
  | Sfdr
  | Full
  | Full_verified

type t = {
  die : die;
  standard : Rfchain.Standards.t;
  config : Rfchain.Config.t;
  p_dbm : float;
  metric : metric;
}

(* Must match the Metrics.Measure.create default: the paper's Fig. 7/9
   single-tone stimulus. *)
let default_p_dbm = -25.0

let die_of_chip chip =
  { chip; fabric = None; rf_fault = None; die_id = Some (Circuit.Process.identity chip) }

let die_of_seed ?lot_sigma_scale seed =
  die_of_chip (Circuit.Process.fabricate ?lot_sigma_scale ~seed ())

let faulted_die ?fabric ?rf_fault ?tag chip =
  let die_id =
    match fabric, rf_fault with
    | None, None -> Some (Circuit.Process.identity chip)
    | _ ->
      (* Injection hooks are opaque closures: only a caller-supplied
         canonical tag (e.g. from Faults.Fault.describe) makes the die
         identifiable; without one the die is uncacheable. *)
      Option.map (fun tag -> Circuit.Process.identity chip ^ "+" ^ tag) tag
  in
  { chip; fabric; rf_fault; die_id }

let die_of_receiver ?tag rx =
  faulted_die
    ?fabric:(Rfchain.Receiver.fabric rx)
    ?rf_fault:(Rfchain.Receiver.rf_fault rx)
    ?tag (Rfchain.Receiver.chip rx)

(* The one place in the tree that builds a receiver from a die; the
   per-consumer copies in the oracle / fault / metrics layers were
   folded into this. *)
let receiver die standard =
  Rfchain.Receiver.create ?fabric:die.fabric ?rf_fault:die.rf_fault die.chip standard

let make ?(p_dbm = default_p_dbm) ~die ~standard ~config metric =
  { die; standard; config; p_dbm; metric }

let metric_tag = function
  | Snr_mod -> "snr_mod"
  | Snr_mod_verified -> "snr_mod_v"
  | Snr_rx { n_fft } -> Printf.sprintf "snr_rx:%d" n_fft
  | Snr_rx_at_power { n_fft; p_dbm; gain_code } ->
    Printf.sprintf "snr_rx_p:%d:%h:%d" n_fft p_dbm gain_code
  | Sfdr -> "sfdr"
  | Full -> "full"
  | Full_verified -> "full_v"

let gain_code t =
  match t.metric with
  | Snr_rx_at_power { gain_code; _ } -> gain_code
  | Snr_mod | Snr_mod_verified | Snr_rx _ | Sfdr | Full | Full_verified ->
    t.config.Rfchain.Config.vglna_gain

let locality t =
  (Circuit.Process.identity t.die.chip, t.standard.Rfchain.Standards.name, gain_code t)

(* Content address of a request: die fingerprint, standard, the
   canonical 64-bit config encoding, stimulus power (exact hex float)
   and the metric.  [None] marks an uncacheable request (opaque
   injection hooks). *)
let cache_key t =
  match t.die.die_id with
  | None -> None
  | Some id ->
    Some
      (Printf.sprintf "%s|%s|%016Lx|%h|%s" id t.standard.Rfchain.Standards.name
         (Rfchain.Config.to_bits t.config) t.p_dbm (metric_tag t.metric))
