type empirical = {
  attack : string;
  trials : int;
  queries : int;
  budget : int;
  oracle_exhausted : bool;
  best_snr_mod_db : float;
  success : bool;
  transfers : (int * int) option;
  projected_wall_clock : string;
}

type t = {
  cost_rows : Attacks.Cost.row list;
  empirical : empirical list;
  cap_unique_codes : int;
  cap_unit_switched_codes : int;
  remaining_bits_after_tap : int;
}

let project trials =
  Attacks.Cost.seconds_to_human (float_of_int trials *. Attacks.Cost.snr_trial_seconds)

let transfer_lot = 5

(* The bench watchdog is a backstop, not the search budget: attacks
   count their own evaluations against [budget], and the watchdog trips
   only when a search's accounting under-counts the measurements it
   spends (the Oracle_exhausted taxonomy). *)
let watchdog_factor = 6

let run ?(budget = 400) ?(attacker_seed = 777) (ctx : Context.t) =
  let key = Core.Key.make ~standard:ctx.Context.standard ~chip:ctx.Context.chip ctx.Context.golden in
  let oracle = Attacks.Oracle.deploy ctx.Context.standard ~chip_seed:ctx.Context.seed ~key in
  let fresh_refab seed =
    Attacks.Oracle.refabricate ~trial_limit:(watchdog_factor * budget) oracle ~attacker_seed:seed
  in
  (* Audit each attack against the process-wide measurement odometer:
     [queries] is what the attack *actually* consumed, independent of
     the trial count it reports about itself. *)
  let audited name f =
    (* Cancellation point per attack: the table stops between attacks,
       never mid-search with a half-charged odometer. *)
    Telemetry.Cancel.poll ();
    let before = Attacks.Oracle.global_queries () in
    let r = Telemetry.Span.with_ ~name:("attack." ^ name) f in
    (r, Attacks.Oracle.global_queries () - before)
  in
  (* A key recovered on the attacker's own die is only a piracy win if
     it unlocks other dice (the paper's transferability argument). *)
  let transfer_count config =
    List.length
      (List.filter Fun.id
         (Core.Threat_model.evaluate_many ctx.Context.standard
            (List.init transfer_lot (fun i -> (880000 + i, config)))))
  in
  let of_brute (r : Attacks.Brute_force.result) queries =
    {
      attack = "brute force (random keys)";
      trials = r.Attacks.Brute_force.trials;
      queries;
      budget;
      oracle_exhausted = r.Attacks.Brute_force.oracle_exhausted;
      best_snr_mod_db = r.Attacks.Brute_force.best_snr_mod_db;
      success = r.Attacks.Brute_force.success;
      transfers =
        (if r.Attacks.Brute_force.success then
           Some (transfer_count r.Attacks.Brute_force.best_config, transfer_lot)
         else None);
      projected_wall_clock = project r.Attacks.Brute_force.trials;
    }
  in
  let of_opt (r : Attacks.Optimize.result) queries =
    {
      attack = r.Attacks.Optimize.attack;
      trials = r.Attacks.Optimize.evaluations;
      queries;
      budget;
      oracle_exhausted = r.Attacks.Optimize.termination = Attacks.Optimize.Oracle_exhausted;
      best_snr_mod_db = r.Attacks.Optimize.best_snr_mod_db;
      success = r.Attacks.Optimize.success;
      transfers =
        (if r.Attacks.Optimize.success then
           Some (transfer_count r.Attacks.Optimize.best_config, transfer_lot)
         else None);
      projected_wall_clock = project r.Attacks.Optimize.evaluations;
    }
  in
  let of_sub (r : Attacks.Subblock.result) queries =
    {
      attack = r.Attacks.Subblock.attack;
      trials = r.Attacks.Subblock.trials;
      queries;
      budget;
      oracle_exhausted = r.Attacks.Subblock.oracle_exhausted;
      best_snr_mod_db = r.Attacks.Subblock.best_snr_mod_db;
      success = r.Attacks.Subblock.success;
      transfers = None;
      projected_wall_clock = project r.Attacks.Subblock.trials;
    }
  in
  let empirical =
    [
      (let r, q =
         audited "brute_force" (fun () -> Attacks.Brute_force.run ~budget (fresh_refab attacker_seed))
       in
       of_brute r q);
      (let r, q =
         audited "simulated_annealing" (fun () ->
             Attacks.Optimize.simulated_annealing ~budget (fresh_refab (attacker_seed + 1)))
       in
       of_opt r q);
      (let r, q =
         audited "genetic" (fun () ->
             Attacks.Optimize.genetic ~budget (fresh_refab (attacker_seed + 2)))
       in
       of_opt r q);
      (let r, q =
         audited "cap_subkey" (fun () ->
             Attacks.Subblock.cap_only_attack ~budget (fresh_refab (attacker_seed + 3)))
       in
       of_sub r q);
      (let r, q =
         audited "tapped_refab" (fun () ->
             Attacks.Subblock.tapped_attack ~budget ctx.Context.standard
               ~attacker_seed:(attacker_seed + 4))
       in
       of_sub r q);
    ]
  in
  (* Capacitor sub-key uniqueness (Section VI-B.1's binary-weighted
     argument): codes within half a fine-unit of the target value. *)
  let unique_codes coding =
    let array =
      Circuit.Cap_array.create ~coding ctx.Context.chip ~name:"sdm.tank1.cc" ~bits:8
        ~unit_cap:80e-15 ~mismatch_sigma_pct:1.0
    in
    let target = Circuit.Cap_array.capacitance array ctx.Context.golden.Rfchain.Config.cap_coarse in
    Circuit.Cap_array.code_count_for_capacitance array ~target ~tolerance:40e-15
  in
  {
    cost_rows = Attacks.Cost.brute_force_table ();
    empirical;
    cap_unique_codes = unique_codes Circuit.Cap_array.Binary_weighted;
    cap_unit_switched_codes = unique_codes Circuit.Cap_array.Unit_switched;
    remaining_bits_after_tap =
      Attacks.Subblock.remaining_key_space_bits
        ~recovered:[ "cap_coarse"; "cap_fine"; "gm_q" ];
  }

let checks t =
  let is_tap e = e.attack = "tapped re-fab (oscillation access granted)" in
  [
    ( "no attack recovered a transferable key",
      List.for_all
        (fun e ->
          match e.transfers with
          | Some (worked, _) -> worked = 0
          | None -> true)
        t.empirical );
    ( "blind random search never unlocked even the attacker's own die",
      List.for_all
        (fun e -> e.attack <> "brute force (random keys)" || not e.success)
        t.empirical );
    ( "granting the internal tank tap flips the outcome (ablation)",
      List.exists (fun e -> is_tap e && e.success) t.empirical );
    ( "oracle audit charged every attack with real measurements",
      List.for_all (fun e -> e.queries > 0) t.empirical );
    ("binary-weighted capacitor sub-key is unique", t.cap_unique_codes = 1);
    ( "unit-switched ablation would multiply sub-keys",
      t.cap_unit_switched_codes > t.cap_unique_codes );
    ("tap ablation still leaves > 40 key bits", t.remaining_bits_after_tap > 40);
  ]

let print t =
  Printf.printf "# Security analysis (Section VI-B)\n\n";
  Printf.printf "## Projected attack costs (paper per-trial times, 2^63 expected trials)\n";
  List.iter (fun r -> Format.printf "%a@." Attacks.Cost.pp_row r) t.cost_rows;
  Printf.printf "\n## Empirical attacks on a re-fabricated die (per-attack budgets)\n";
  Printf.printf "%-45s %7s  %15s  %12s  %-8s %s\n" "attack" "trials" "queries(act/bud)"
    "raw probe max" "success" "projected wall clock @20min/trial";
  List.iter
    (fun e ->
      let success_text =
        match (e.success, e.transfers) with
        | false, _ -> "no"
        | true, Some (worked, lot) -> Printf.sprintf "own die (transfers %d/%d)" worked lot
        | true, None -> "own die"
      in
      let queries_text =
        Printf.sprintf "%d/%d%s" e.queries e.budget (if e.oracle_exhausted then "!" else "")
      in
      Printf.printf "%-45s %7d  %15s  %9.1f dB  %-26s %s\n" e.attack e.trials queries_text
        e.best_snr_mod_db success_text e.projected_wall_clock)
    t.empirical;
  Printf.printf
    "queries = measurements actually consumed (bench + oscillation probes, telemetry odometer); \
     ! = stopped by the oracle watchdog (armed at %dx budget)\n"
    watchdog_factor;
  Printf.printf "\n## Capacitor sub-key uniqueness\n";
  Printf.printf "binary-weighted: %d code(s) hit the target capacitance; unit-switched ablation: %d\n"
    t.cap_unique_codes t.cap_unit_switched_codes;
  Printf.printf "internal-tap ablation leaves %d unknown key bits\n" t.remaining_bits_after_tap;
  Context.print_checks (checks t)
