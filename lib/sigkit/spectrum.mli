(** Power spectra and band-power integration.

    A spectrum here is the one-sided windowed periodogram of a real
    record: [n/2 + 1] bins of power (arbitrary units consistent across
    bins), bin [k] centred at frequency [k * fs / n].  All SNR/SFDR
    metrology reduces to integrating these bins over frequency bands. *)

type t = {
  power : float array;  (** one-sided bin powers, length n/2 + 1 *)
  fs : float;           (** sample rate the record was taken at *)
  n : int;              (** record length (power of two) *)
  window : Window.kind;
}

val periodogram : ?window:Window.kind -> fs:float -> float array -> t
(** [periodogram ~fs x] estimates the spectrum of [x].  The record is
    truncated to the largest power-of-two prefix.  Default window is
    Hann. *)

val bin_of_freq : t -> float -> int
(** Nearest bin index for a frequency in hertz (clamped to range). *)

val freq_of_bin : t -> int -> float

val band_power : t -> f_lo:float -> f_hi:float -> float
(** Total power in the inclusive bin range covering [f_lo, f_hi]. *)

val band_power_excluding : t -> f_lo:float -> f_hi:float -> exclude:(int * int) list -> float
(** Same, with the given inclusive bin ranges removed (e.g. carrier
    bins when integrating noise). *)

val peak_in_band : t -> f_lo:float -> f_hi:float -> int * float
(** Bin index and power of the strongest bin in the band. *)

val tone_power : t -> freq:float -> float
(** Power of a coherent tone near [freq]: the peak bin in a small search
    neighbourhood plus its main-lobe skirt. *)

val tone_bins : t -> freq:float -> int * int
(** Inclusive bin range attributed to a tone at [freq] (peak bin +-
    window main lobe), for exclusion from noise integrals. *)
