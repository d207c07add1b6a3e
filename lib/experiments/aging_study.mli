(** Aging and recycled-part study.

    A recycled counterfeit is "a used and possibly aged IC that is
    illegally resold as new" (paper Section I).  Two consequences fall
    out of the programmability-fabric locking model:

    - the key-management side (paper Section IV-C): under the PUF
      scheme the part is inert without the customer's user keys,
      regardless of age — that is the countermeasure, and it is already
      exercised by {!Compare_table};
    - the physics side (this study): even when the recycler *does*
      obtain the part's original key (LUT scheme), BTI/HCI drift moves
      the die away from the configuration calibrated for it when new,
      so heavily used parts lose margin or fall out of spec — and a
      fresh re-calibration recovers them, which is a tell-tale
      recycled-part detection signature (the recovered key differs from
      the provisioned one). *)

type point = {
  hours : float;
  snr_db : float;                 (** original key on the aged die *)
  in_spec : bool;
  recalibrated_snr_db : float;    (** fresh calibration on the aged die *)
  key_drift_bits : int;           (** Hamming distance of the two keys *)
}

type t = {
  fresh_snr_db : float;
  points : point list;
}

val run : ?hours:float list -> Context.t -> t
(** Default ages: 1k, 20k, 100k hours (about 2 months, 2 years and a
    decade of continuous use). *)

val checks : t -> (string * bool) list

val print : t -> unit
