(** Spectral analysis windows.

    Windows control the trade-off between spectral leakage and resolution
    when estimating spectra of finite records.  The SNR/SFDR metrology uses
    Hann by default, matching common ADC test practice (IEEE 1241). *)

type kind =
  | Rectangular
  | Hann
  | Hamming
  | Blackman_harris  (** 4-term, -92 dB sidelobes *)

val table : kind -> int -> float array
(** [table kind n] returns the memoized coefficient table for
    [(kind, n)]: repeated calls return the {e same physical array}, so
    hot measurement loops pay the trigonometry once per size.  The
    array is shared (including across domains) and must not be
    mutated; use {!coefficients} for a private copy. *)

val coefficients : kind -> int -> float array
(** [coefficients kind n] returns a fresh copy of the [n] window
    samples (safe to mutate). *)

val apply : kind -> float array -> float array
(** Pointwise multiplication of a signal record by the window. *)

val main_lobe_bins : kind -> int
(** Half-width (in bins) over which a windowed coherent tone spreads;
    bins within this distance of a tone are attributed to the tone when
    integrating signal power. *)
