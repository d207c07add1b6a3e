(** Key-distance avalanche study.

    How quickly does functionality collapse as a key moves away from
    the correct one?  For each Hamming distance d, flip d random key
    bits of the golden configuration and measure the SNR.  The paper's
    locking argument wants a cliff, not a slope: a near-miss key should
    already be far out of spec, otherwise an attacker could polish a
    partially working key bit by bit.  The per-bit structure also shows
    which fields carry the "strong" key bits (mode bits, coarse
    capacitors, loop delay) versus the "weak" trims. *)

type distance_stat = {
  distance : int;
  mean_snr_db : float;
  max_snr_db : float;
  samples : int;
}

type bit_impact = {
  bit : int;            (** bit position in the 64-bit word *)
  field : string;       (** owning configuration field *)
  snr_drop_db : float;  (** SNR loss from flipping just this bit *)
}

type t = {
  golden_snr_db : float;
  by_distance : distance_stat list;
  single_bit : bit_impact list;   (** all 64 bits, strongest first *)
}

val run : ?distances:int list -> ?samples_per_distance:int -> Context.t -> t
(** Defaults: distances 1, 2, 4, 8, 16, 32 with 6 samples each, plus
    the exhaustive 64 single-bit flips. *)

val checks : Context.t -> t -> (string * bool) list

val print : Context.t -> t -> unit
