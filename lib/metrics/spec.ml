type measurement = {
  snr_mod_db : float;
  snr_rx_db : float;
  sfdr_db : float option;
}

(* [>=] is false on nan, so an unmeasurable performance fails. *)
let snr_meets (standard : Rfchain.Standards.t) snr_db = snr_db >= standard.min_snr_db
let sfdr_meets (standard : Rfchain.Standards.t) sfdr_db = sfdr_db >= standard.min_sfdr_db

let functional standard m =
  snr_meets standard m.snr_mod_db
  && snr_meets standard m.snr_rx_db
  && Option.fold ~none:true ~some:(sfdr_meets standard) m.sfdr_db

let shortfall target value = Float.max 0.0 (target -. value)

let spec_distance (standard : Rfchain.Standards.t) m =
  shortfall standard.min_snr_db m.snr_mod_db
  +. shortfall standard.min_snr_db m.snr_rx_db
  +. (match m.sfdr_db with
     | None -> 0.0
     | Some sfdr -> shortfall standard.min_sfdr_db sfdr)
