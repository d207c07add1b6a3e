(** Shared experimental setup for the paper's evaluation (Section VI).

    One die (default seed 42), the maximum-frequency standard (3 GHz),
    calibrated once; all figures are measured on this setup, exactly as
    the paper demonstrates everything on one chip at the maximum centre
    frequency. *)

type t = {
  seed : int;
  standard : Rfchain.Standards.t;
  chip : Circuit.Process.chip;
  rx : Rfchain.Receiver.t;
  calibration : Calibration.Calibrate.report;
  golden : Rfchain.Config.t;     (** the calibrated secret key *)
}

val create : ?seed:int -> ?standard:Rfchain.Standards.t -> ?fast:bool -> unit -> t
(** Fabricate and calibrate.  [fast] (default false) uses the 1-pass
    calibration — for tests and benchmark kernels. *)

val deceptive_example : t -> Rfchain.Config.t
(** A representative "index 7" deceptive key: the feedback loop open
    and the comparator in buffer mode, everything else as drawn by the
    seeded ensemble — regenerated deterministically so Figs. 8/10/11/12
    always show the same key the Fig. 7 ensemble contains. *)

val invalid_ensemble : ?n:int -> t -> Rfchain.Config.t list
(** The seeded 100-key ensemble of Figs. 7/9, derived from the
    context's chip seed via {!ensemble_seed} so distinct chips face
    distinct ensembles. *)

val ensemble_seed : t -> int
(** The RNG seed behind {!invalid_ensemble} — pass it to
    [Core.Lock_eval.evaluate] to draw the exact same ensemble. *)

val print_checks : (string * bool) list -> unit
(** Print an experiment's named claims, one [[PASS]]/[[FAIL]] line each. *)
