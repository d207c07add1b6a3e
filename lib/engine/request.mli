(** The evaluation engine's unit of work.

    A request names a die, a standard, a 64-bit configuration word, a
    stimulus power and a metric; evaluating it is a pure function (all
    process draws and noise streams derive from the die's immutable
    fingerprint), which is what makes results cacheable and the
    parallel backend bit-deterministic. *)

type die
(** A device under evaluation: a chip plus optional fault-injection
    hooks, with a canonical identity when one exists. *)

type metric =
  | Snr_mod               (** modulator-output SNR (Fig. 7) — 1 trial *)
  | Snr_mod_verified      (** linearity-verified SNR — 2 or 3 trials *)
  | Snr_rx of { n_fft : int }  (** receiver-output SNR (Fig. 9) — 1 trial *)
  | Snr_rx_at_power of { n_fft : int; p_dbm : float; gain_code : int }
      (** Fig. 11 sweep point — 1 trial *)
  | Sfdr                  (** two-tone SFDR (Fig. 12) — 1 trial *)
  | Full                  (** SNR at both taps + SFDR — 3 trials *)
  | Full_verified         (** the oracle's [try_key] bundle — 4 or 5 trials *)

type t = {
  die : die;
  standard : Rfchain.Standards.t;
  config : Rfchain.Config.t;
  p_dbm : float;
  metric : metric;
}

val default_p_dbm : float
(** -25 dBm, the paper's single-tone stimulus (matches the
    [Metrics.Measure.create] default). *)

val die_of_chip : Circuit.Process.chip -> die

val die_of_seed : ?lot_sigma_scale:float -> int -> die
(** Fabricate-and-wrap: the common "fresh die from a seed" case. *)

val faulted_die :
  ?fabric:(Rfchain.Config.t -> Rfchain.Config.t) ->
  ?rf_fault:(float array -> float array) ->
  ?tag:string ->
  Circuit.Process.chip ->
  die
(** A die with injection hooks.  Hooks are opaque closures, so the die
    only gets a cacheable identity when the caller supplies a canonical
    [tag] describing them; untagged faulted dies bypass the cache. *)

val die_of_receiver : ?tag:string -> Rfchain.Receiver.t -> die
(** Recover a die from an already-built receiver (chip + hooks). *)

val receiver : die -> Rfchain.Standards.t -> Rfchain.Receiver.t
(** Build the receiver a request evaluates — the single copy of the
    "receiver from config + chip" construction pattern. *)

val make :
  ?p_dbm:float -> die:die -> standard:Rfchain.Standards.t ->
  config:Rfchain.Config.t -> metric -> t

val cache_key : t -> string option
(** Content address: die fingerprint | standard | canonical config bits
    | stimulus power | metric.  [None] for uncacheable requests. *)

val locality : t -> string * string * int
(** (die identity, standard name, VGLNA gain code the metric measures
    at: [gain_code] for [Snr_rx_at_power], the word's own otherwise).
    Requests with equal locality share the receiver's memoised front
    half (stimulus and VGLNA, see {!Rfchain.Receiver.run_stimulus}), so
    the engine runs them back to back.  The code is the one the word
    asks for; a [fabric] hook may apply another. *)

val metric_tag : metric -> string
