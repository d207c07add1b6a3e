(** Test-signal generation and time-domain utilities. *)

(** A periodic test stimulus, described by its exact parameters rather
    than by its samples: equal descriptors render equal records, which
    is what lets a receiver memoise the work that depends only on its
    input. *)
type stimulus =
  | Tone of {
      amplitude : float;  (** peak volts *)
      freq : float;
      fs : float;
      phase : float;  (** radians at sample 0 *)
    }
  | Two_tone of {
      amplitude : float;  (** peak volts of each tone *)
      f1 : float;
      f2 : float;
      fs : float;
    }
      (** Two equal-amplitude tones, the second offset by pi/3 at
          sample 0 (the classic IM3/SFDR stimulus). *)

val dbm_tone : p_dbm:float -> freq:float -> fs:float -> ?phase:float -> unit -> stimulus
(** A tone whose power into the 50-ohm reference load is [p_dbm]. *)

val dbm_two_tone : p_dbm:float -> f1:float -> f2:float -> fs:float -> stimulus
(** Two tones, each at [p_dbm]. *)

val equal_stimulus : stimulus -> stimulus -> bool
(** Same kind and bit-identical parameters (so [nan] parameters compare
    by payload and [0.0] differs from [-0.0]). *)

val render_into : stimulus -> n:int -> rot:int -> float array -> unit
(** [render_into s ~n ~rot dst] fills every cell of [dst] from the
    [n]-sample record of [s], repeated periodically and started at
    sample [rot]: [dst.(i)] is sample [(i + rot) mod n], bit-identical
    to that cell of [render s n].  [dst] may be longer than [n].
    Raises [Invalid_argument] unless [0 <= rot < n] (an empty [dst]
    accepts anything). *)

val render : stimulus -> int -> float array
(** [render s n] is the fresh [n]-sample record of [s]. *)

val tone : amplitude:float -> freq:float -> fs:float -> ?phase:float -> int -> float array
(** [tone ~amplitude ~freq ~fs n] is [n] samples of a sinusoid: [render]
    of a [Tone]. *)

val tone_dbm : p_dbm:float -> freq:float -> fs:float -> ?phase:float -> int -> float array
(** [render] of {!dbm_tone}. *)

val two_tone_dbm : p_dbm:float -> f1:float -> f2:float -> fs:float -> int -> float array
(** [render] of {!dbm_two_tone}. *)

val add : float array -> float array -> float array
val scale : float -> float array -> float array

val gaussian_noise : Rng.t -> sigma:float -> int -> float array

val rms : float array -> float
val peak : float array -> float

val mean : float array -> float

val coherent_frequency : freq:float -> fs:float -> n:int -> float
(** Nearest frequency to [freq] that lands exactly on a bin of an
    [n]-point FFT at rate [fs] (and is odd-indexed when possible, the
    standard coherent-sampling choice that avoids harmonic aliasing onto
    the carrier bin). *)
