type t = {
  standard : Rfchain.Standards.t;
  die : Engine.Request.die;
  key : Core.Key.t;  (* hidden inside the tamper-proof store *)
}

let deploy standard ~chip_seed ~key =
  { standard; die = Engine.Request.die_of_seed chip_seed; key }

let reference_performance t =
  Engine.Service.eval
    (Engine.Request.make ~die:t.die ~standard:t.standard ~config:(Core.Key.config t.key)
       Engine.Request.Full)

let standard t = t.standard

type error = Budget_exhausted of { spent : int; limit : int }

type refab = {
  refab_standard : Rfchain.Standards.t;
  refab_die : Engine.Request.die;
  account : Engine.Service.Account.t;
}

let refabricate ?trial_limit t ~attacker_seed =
  {
    refab_standard = t.standard;
    refab_die = Engine.Request.die_of_seed attacker_seed;
    account = Engine.Service.Account.make ?limit:trial_limit ();
  }

let refab_standard r = r.refab_standard
let trials_spent r = Engine.Service.Account.spent r.account

let queries_counter = Telemetry.Counter.make "oracle.queries"
let denied_counter = Telemetry.Counter.make "oracle.denied"

(* Everything an attack spends ends up as bench trials charged to the
   refab's engine account or in oscillation-mode probes (the tapped
   ablation's Osc_tune phase); summing both odometers gives the
   attack's true measurement cost, independent of its own accounting.
   Cache hits replay their cost, so the sum is cache-warmth
   invariant. *)
let global_queries () =
  Metrics.Measure.global_trial_count () + Rfchain.Sdm.global_probe_count ()

(* The watchdog now lives in the engine: every probe is a guarded eval
   against the refab's account, so a runaway search loop cannot spend
   unbounded measurement time no matter what its own budget accounting
   does. *)
let guard r metric config =
  let req =
    Engine.Request.make ~die:r.refab_die ~standard:r.refab_standard ~config metric
  in
  match Engine.Service.eval_guarded ~account:r.account req with
  | Error (Engine.Service.Budget_exhausted { spent; limit }) ->
    Telemetry.Counter.incr denied_counter;
    Error (Budget_exhausted { spent; limit })
  | Ok (measurement, cost) ->
    Telemetry.Counter.add queries_counter cost;
    Ok measurement

(* The full check measures every specified performance (the attacker
   must satisfy all of them simultaneously — the paper's multi-objective
   difficulty), and uses the linearity-verified SNR so an
   injection-locked tank regenerating the test tone cannot fool it. *)
let try_key r config = guard r Engine.Request.Full_verified config

let try_key_fast r config =
  Result.map (fun m -> m.Metrics.Spec.snr_mod_db) (guard r Engine.Request.Snr_mod config)

let spec_distance r m = Metrics.Spec.spec_distance r.refab_standard m
