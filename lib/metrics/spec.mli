(** Performance specifications: the one verdict on a key.

    Locking "succeeds when at least one performance violates its
    specification" (paper Section VI-A); this module is that predicate,
    and the only place a measurement is compared with a standard's
    [min_snr_db] / [min_sfdr_db].  A nan value (an unmeasurable
    performance, e.g. a 0/0 power ratio) fails its spec. *)

type measurement = {
  snr_mod_db : float;      (** SNR at the modulator output *)
  snr_rx_db : float;       (** SNR at the receiver output *)
  sfdr_db : float option;  (** two-tone SFDR when measured *)
}

val snr_meets : Rfchain.Standards.t -> float -> bool
(** An SNR (dB) at or above the standard's [min_snr_db]. *)

val sfdr_meets : Rfchain.Standards.t -> float -> bool
(** An SFDR (dB) at or above the standard's [min_sfdr_db]. *)

val functional : Rfchain.Standards.t -> measurement -> bool
(** Every measured performance inside spec: both SNRs, and the SFDR
    when it was measured — the operational definition of "unlocked". *)

val spec_distance : Rfchain.Standards.t -> measurement -> float
(** Aggregate shortfall (dB) from the specification — the optimisation
    attacks' objective.  It is 0 exactly when {!functional} holds;
    otherwise it is positive, or nan when a performance is nan. *)
