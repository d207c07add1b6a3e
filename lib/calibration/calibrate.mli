(** The full 14-step calibration procedure (paper Section V-B).

    This algorithm is the design house's crown jewel: it is what turns
    a blank die into a working receiver, and under the locking scheme
    it is kept secret together with the configuration settings it
    produces.  Steps:

    + 1-4   reconfigure for calibration (buffered comparator, output
            buffer in path, RF input off, feedback open);
    + 5-7   oscillation-mode tuning of Cc/Cf and -Gm back-off
            ({!Osc_tune});
    + 8-11  restore the loop, select sampling rate and loop delay;
    + 12    VGLNA segment selection for the target sensitivity;
    + 13    nominal bias initialisation (design knowledge);
    + 14    iterative SNR/SFDR-driven bias refinement
            ({!Coordinate_search}).

    Calibration on a real production line fails on some dies — process
    outliers, latent defects, fault-injected parts.  The procedure
    therefore never raises: {!run} always returns an {!outcome} whose
    {!verdict} says whether the die converged into spec or must be
    binned, with the best-effort {!report} attached either way. *)

type report = {
  key : Rfchain.Config.t;        (** the calibrated configuration = secret key *)
  snr_mod_db : float;            (** achieved SNR at the modulator output *)
  snr_rx_db : float;             (** achieved SNR at the receiver output *)
  sfdr_db : float;               (** achieved SFDR *)
  freq_error_hz : float;         (** residual tank-tuning error *)
  oscillation_measurements : int;
  snr_measurements : int;
  log : string list;             (** human-readable step trace, oldest first *)
}

type failure =
  | Tank_dead of { log : string list; measurements : int }
      (** Steps 1-7 found no oscillation: the die cannot be tuned at
          all.  The attached report is synthetic (nominal key,
          [-inf] metrics) — bin the part. *)
  | Spec_shortfall of { report : report; shortfall_db : float }
      (** Calibration completed but the die misses its standard by
          [shortfall_db] (summed SNR/SFDR shortfall).  The report holds
          the best configuration found. *)

type verdict = Converged | Degraded of failure

type outcome = {
  report : report;   (** best-effort result, present even when degraded *)
  verdict : verdict;
  attempts : int;    (** calibration attempts spent (1 = no retry needed) *)
}

val step14_fields : string list
(** The knobs refined by the iterative step, in the (secret) order the
    procedure visits them. *)

val attempt : ?passes:int -> ?refine_sfdr:bool -> Rfchain.Receiver.t -> (report, failure) result
(** One calibration attempt, no retries.  [passes] bounds the step-14
    cycles (default 2); [refine_sfdr] adds an SFDR term to the step-14
    objective and to the acceptance gate (default true, one extra trial
    per probe). *)

val run :
  ?passes:int -> ?refine_sfdr:bool -> ?max_retries:int -> Rfchain.Receiver.t -> outcome
(** Calibrate one die for the receiver's standard, retrying with an
    escalated budget when the die misses spec: each retry adds a
    step-14 pass and widens the probe ladder to +-32.  [max_retries]
    defaults to 2; pass [~max_retries:0] in large Monte-Carlo sweeps
    where a marginal die should just be reported as such.  A dead tank
    is never retried.  Never raises. *)

val quick : Rfchain.Receiver.t -> Rfchain.Config.t
(** Calibration with a single refinement pass, no SFDR term and no
    retries — cheaper, used by tests and large Monte-Carlo sweeps.
    Best-effort: on a degraded die this returns the best key found
    (or the nominal word for a dead tank) rather than raising. *)
