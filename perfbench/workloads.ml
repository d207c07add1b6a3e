(* The three benchmark workloads.  Each is a closed loop with one
   caller, driven through the libraries' public entry points on the
   bluetooth standard.

   A workload's [setup] builds everything the timed section needs (it
   is timed as set-up); the returned instance's [section] is the timed
   work and returns a digest of every measurement it produced. *)

let standard = Rfchain.Standards.bluetooth

(* What the stage-ledger pass replays the workload's request mix on:
   the workload's own die and calibrated key, and seed-drawn keys. *)
type fixture = {
  chip : Circuit.Process.chip;
  golden : Rfchain.Config.t;
  keys : Rfchain.Config.t list;
}

type instance = {
  section : unit -> string;
  teardown : unit -> unit;
  fixture : unit -> fixture;
}

type t = {
  name : string;
  lanes : int;
  setup : seed:int -> out_dir:string -> instance;
}

(* Bit-exact digests: every float goes in as its IEEE bit pattern. *)
let digest fill =
  let b = Buffer.create 4096 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_config b c = Buffer.add_int64_le b (Rfchain.Config.to_bits c)
let add_string b s = add_int b (String.length s); Buffer.add_string b s

let seeded_keys ~seed n =
  let rng = Sigkit.Rng.create seed in
  List.init n (fun _ -> Rfchain.Config.random rng)

(* Calibrate the reference die with full passes, exactly as every
   figure command does; the engine it runs on is the one the section
   then uses. *)
let calibrated_context ~seed ~jobs =
  Trace.span "engine.configure" (fun () -> Engine.Service.configure ~jobs ());
  Trace.span "calibration.die" (fun () -> Experiments.Context.create ~seed ~standard ())

(* Figs. 7/9: 100 seeded invalid keys plus the golden key on one
   calibrated die; one batch of 202 distinct requests. *)
let key_sweep =
  let setup ~seed ~out_dir:_ =
    let ctx = calibrated_context ~seed ~jobs:1 in
    let section () =
      let r = Trace.span "experiments.fig7_fig9.run" (fun () -> Experiments.Fig7_fig9.run ctx) in
      let open Core.Lock_eval in
      digest (fun b ->
          List.iter
            (fun k ->
              add_int b k.index;
              add_config b k.config;
              add_float b k.snr_mod_db;
              add_float b k.snr_rx_db)
            (r.Experiments.Fig7_fig9.eval.correct :: r.Experiments.Fig7_fig9.eval.invalid))
    in
    let fixture () =
      {
        chip = ctx.Experiments.Context.chip;
        golden = ctx.Experiments.Context.golden;
        keys = Experiments.Context.invalid_ensemble ctx;
      }
    in
    { section; teardown = ignore; fixture }
  in
  { name = "key-sweep"; lanes = 1; setup }

let sa_budget = 400
let ga_budget = 150
let watchdog_factor = 6

(* GA key recovery (Attack of the Genes' threat) next to simulated
   annealing: each attack on its own re-fabricated die, probing a
   deployed oracle part through the engine's guarded path. *)
let attack =
  let attacker_seed ~seed i = 880_000 + (100 * seed) + i in
  let setup ~seed ~out_dir:_ =
    let ctx = calibrated_context ~seed ~jobs:1 in
    let oracle =
      Trace.span "attacks.oracle.deploy" (fun () ->
          let key =
            Core.Key.make ~standard ~chip:ctx.Experiments.Context.chip ctx.Experiments.Context.golden
          in
          Attacks.Oracle.deploy standard ~chip_seed:seed ~key)
    in
    let refab i budget =
      Trace.span "attacks.oracle.refabricate" (fun () ->
          Attacks.Oracle.refabricate ~trial_limit:(watchdog_factor * budget) oracle
            ~attacker_seed:(attacker_seed ~seed i))
    in
    let add_result b refab (r : Attacks.Optimize.result) =
      add_string b r.Attacks.Optimize.attack;
      add_int b r.evaluations;
      add_int b (Bool.to_int r.success);
      add_config b r.best_config;
      add_float b r.best_snr_mod_db;
      List.iter
        (fun (p : Attacks.Optimize.trace_point) ->
          add_int b p.evaluation;
          add_float b p.best_snr_mod_db)
        r.trace;
      add_string b (Attacks.Optimize.termination_to_string r.termination);
      add_int b (Attacks.Oracle.trials_spent refab)
    in
    let section () =
      let sa_refab = refab 1 sa_budget in
      let sa =
        Trace.span "attacks.optimize.simulated_annealing" (fun () ->
            Attacks.Optimize.simulated_annealing ~seed ~budget:sa_budget sa_refab)
      in
      let ga_refab = refab 2 ga_budget in
      let ga =
        Trace.span "attacks.optimize.genetic" (fun () ->
            Attacks.Optimize.genetic ~seed ~budget:ga_budget ga_refab)
      in
      digest (fun b ->
          add_result b sa_refab sa;
          add_result b ga_refab ga)
    in
    let fixture () =
      {
        chip = Circuit.Process.fabricate ~seed:(attacker_seed ~seed 1) ();
        golden = ctx.Experiments.Context.golden;
        keys = seeded_keys ~seed 100;
      }
    in
    { section; teardown = ignore; fixture }
  in
  { name = "attack"; lanes = 1; setup }

let campaign_dies = 3
let campaign_lanes = 2

(* The fault campaign on a 2-lane engine that journals every computed
   cell to a fresh checkpoint file. *)
let campaign =
  let setup ~seed ~out_dir =
    let path = Filename.concat out_dir (Printf.sprintf "campaign-%d.journal" seed) in
    let cp =
      Trace.span "engine.checkpoint.load" (fun () ->
          match Engine.Checkpoint.load ~resume:false path with
          | Ok cp -> cp
          | Error c -> failwith (Engine.Checkpoint.corruption_to_string c))
    in
    Trace.span "engine.configure" (fun () ->
        Engine.Service.configure ~jobs:campaign_lanes ~checkpoint:cp ());
    let section () =
      let t =
        Trace.span "faults.campaign.run" (fun () ->
            match Faults.Campaign.run ~dies:campaign_dies ~seed standard with
            | Ok t -> t
            | Error e -> failwith (Faults.Error.to_string e))
      in
      let open Faults.Campaign in
      digest (fun b ->
          add_float b t.golden_snr_mod_db;
          List.iter
            (fun c ->
              add_int b c.die_seed;
              add_string b c.mechanism;
              add_string b (Faults.Fault.severity_name c.severity);
              add_float b c.snr_mod_db;
              add_float b c.lock_margin_db)
            t.cells;
          List.iter
            (fun f ->
              add_int b f.bit;
              add_float b f.flip_snr_mod_db;
              add_int b (Bool.to_int f.survives_full))
            t.flips;
          List.iter (add_int b) t.unlocked_bits;
          List.iter
            (fun d ->
              add_string b d.label;
              add_string b (Faults.Report.verdict_string d.outcome);
              add_config b d.outcome.Calibration.Calibrate.report.Calibration.Calibrate.key;
              add_float b d.outcome.Calibration.Calibrate.report.Calibration.Calibrate.snr_mod_db)
            t.demos;
          add_int b t.completed_cells;
          add_int b (Bool.to_int (complete t)))
    in
    let teardown () =
      Trace.span "engine.checkpoint.close" (fun () -> Engine.Checkpoint.close cp);
      Engine.Service.configure ~jobs:1 ()
    in
    let fixture () =
      let chip = Circuit.Process.fabricate ~seed () in
      let golden =
        Trace.span "calibration.die" (fun () ->
            Calibration.Calibrate.quick (Rfchain.Receiver.create chip standard))
      in
      let flip bit =
        Rfchain.Config.of_bits
          (Int64.logxor (Rfchain.Config.to_bits golden) (Int64.shift_left 1L bit))
      in
      { chip; golden; keys = List.init Rfchain.Config.key_bits flip }
    in
    { section; teardown; fixture }
  in
  { name = "campaign"; lanes = campaign_lanes; setup }

let all = [ key_sweep; attack; campaign ]
