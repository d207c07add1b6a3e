(** The bench JSON trajectory file ("bench-kernels/2") and its
    regression gate.

    The writer stamps each file with a run {!Telemetry.Manifest};
    the reader rejects any other schema.  The gate applies generous
    multiplicative tolerances — baseline and CI run on different
    machines and bench quotas, so only multiple-of-baseline blowups
    are actionable — with extra headroom for sub-microsecond kernels
    and an absolute allocation slack. *)

type kernel = {
  name : string;
  ns_per_run : float;  (** nan when the harness could not estimate *)
  minor_words_per_run : float;
      (** exact [Gc.minor_words] delta per run on the calling domain
          only: words a kernel's pool workers allocate on other
          domains ([engine:batch8-2domains], [pool:*]) are not counted *)
}

type file = {
  manifest : Telemetry.Manifest.t option;  (** dropped when it does not decode *)
  kernels : kernel list;
}

val schema_name : string

val write : path:string -> ?manifest:Telemetry.Manifest.t -> kernel list -> unit
(** Write a schema-2 file, kernels sorted by name. *)

val read : string -> (file, string) result
val of_string : string -> (file, string) result

(** {1 Regression gate} *)

type tolerance = {
  ns_ratio : float;  (** fail when current ns > baseline * ratio *)
  mwd_ratio : float;
  mwd_slack : float;  (** absolute words added to the mwd limit *)
}

val default_tolerance : tolerance

val tolerance_for : string -> tolerance
(** Per-kernel tolerance: sub-microsecond kernels get a wider
    [ns_ratio]; arena-converted kernels (DESIGN §15) keep half the
    allocation slack. *)

type verdict =
  | Pass
  | Regressed of {
      field : string;
      baseline : float;
      current : float;
      limit : float;
    }
  | Missing  (** in the baseline, absent from the current run *)

type comparison = {
  kernel : string;
  verdict : verdict;
}

val compare_results :
  baseline:kernel list -> current:kernel list -> require_all:bool -> comparison list
(** One comparison per baseline kernel, name order.  Kernels only in
    the current run pass silently; baseline kernels absent from the
    run are [Missing] only under [require_all] (full-suite gates, not
    [--only] runs). *)

val regressions : comparison list -> comparison list
(** The non-[Pass] subset. *)

val check_budgets : kernel list -> comparison list
(** Baseline-free absolute gate: one comparison per budgeted kernel
    present in the run, [Regressed] (field ["minor_words_budget"])
    when it allocates past its budget.  Drives [make alloc-smoke]. *)

val verdict_to_string : comparison -> string
