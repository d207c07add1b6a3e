(** Secret keys of the programmability-fabric locking scheme.

    The paper's central idea (Section IV-A): the programming bits that
    configure the analog section {e are} the key bits, and each
    configuration setting — per standard, per die — is a secret key.
    No extra circuitry exists: an invalid key is simply a configuration
    under which the receiver does not meet its specifications. *)

type t = {
  standard : string;              (** operation mode this key unlocks *)
  chip_seed : int;                (** die the key was calibrated for *)
  config : Rfchain.Config.t;      (** the 64 programming bits *)
}

val make : standard:Rfchain.Standards.t -> chip:Circuit.Process.chip -> Rfchain.Config.t -> t

val config : t -> Rfchain.Config.t
val bits : t -> int64
val hamming_distance : t -> t -> int
