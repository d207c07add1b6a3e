(** Neural-network performance locking, Volanis et al. [11] (paper Fig. 1f).

    An on-chip multilayer perceptron maps a secret *analog* key — a
    vector of DC voltages presented at dedicated pins — to the correct
    bias settings.  The network is trained so the secret vector decodes
    to the design biases while other vectors produce garbage.  This
    module trains a real (tiny) MLP with gradient descent: one hidden
    tanh layer, mean-squared-error loss on the secret key plus decoy
    vectors mapped away from the target. *)

type t

val train :
  ?hidden:int ->
  ?epochs:int ->
  ?decoys:int ->
  Sigkit.Rng.t ->
  key_voltages:float array ->
  target_biases:float array ->
  t
(** Train the biasing network.  Voltages and biases are normalised to
    [0, 1].  Raises [Invalid_argument] on empty vectors. *)

val infer : t -> float array -> float array
(** The biases the network would apply for a presented key vector. *)

val bias_error : t -> float array -> float
(** RMS distance of the inferred biases from the design point when
    presenting a candidate analog key. *)

val descriptor : Technique.t
