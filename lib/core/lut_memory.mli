(** Tamper-proof configuration LUT (key-management scheme of Fig. 3a).

    The configuration settings are provisioned into an on-chip
    tamper-proof memory; in normal operation the circuit dynamically
    commands the memory to load the programming bits for the selected
    operation mode.  Physical or protocol attempts to read the raw
    contents trip the tamper response and zeroise the memory. *)

type t

type readout_error =
  | Tamper_response_triggered  (** raw readout attempt: memory zeroised *)
  | Not_provisioned

val provision : (string * Rfchain.Config.t) list -> t
(** Write the per-standard configuration settings (done in the design
    house's secure environment). *)

val select : t -> standard:string -> (Rfchain.Config.t, readout_error) result
(** Normal-operation load of one mode's programming bits.  Fails after
    a tamper event. *)

val raw_readout : t -> (int64 list, readout_error) result
(** An attacker's attempt to dump the memory.  Always triggers the
    tamper response: returns an error and renders {!select}
    unusable afterwards. *)

val tampered : t -> bool
