type sat_result = {
  broken : bool;
  oracle_queries : int;
  key_bits : int;
}

type t = {
  techniques : Baselines.Technique.t list;
  probes : Baselines.Compare.corruption_probe list;
  removal : (string * Baselines.Technique.removal_verdict) list;
  threat_outcomes : Core.Threat_model.outcome list;
  sat_on_mixlock : sat_result;
}

let run ?(seed = 31) (ctx : Context.t) =
  let golden_key =
    Core.Key.make ~standard:ctx.Context.standard ~chip:ctx.Context.chip ctx.Context.golden
  in
  let lut_recycle, puf_recycle =
    Core.Threat_model.recycling ctx.Context.standard ~seed:ctx.Context.seed ~key:golden_key
  in
  (* SAT attack on the digital-section lock: MixLock's key gates form a
     Boolean oracle relation, which is exactly what the attack needs. *)
  let sat_on_mixlock =
    let rng = Sigkit.Rng.create (seed + 100) in
    let locked =
      Netlist.Logic_lock.lock rng (Netlist.Bench_circuits.ripple_adder 8) ~key_bits:16
    in
    let r = Netlist.Sat_attack.run ~seed:(seed + 101) locked in
    {
      broken = r.Netlist.Sat_attack.found_key <> None;
      oracle_queries = r.Netlist.Sat_attack.oracle_queries;
      key_bits = 16;
    }
  in
  {
    techniques = Baselines.Compare.all;
    probes = Baselines.Compare.corruption_probes ~seed ();
    removal = Baselines.Compare.removal_analysis ();
    sat_on_mixlock;
    threat_outcomes =
      [
        Core.Threat_model.cloning ctx.Context.standard ~golden_key;
        Core.Threat_model.overproduction ~fabricated:1000 ~provisioned:800;
        lut_recycle;
        puf_recycle;
        Core.Threat_model.remarking ctx.Context.standard ~seed:990002;
      ];
  }

let checks t =
  let removable =
    List.filter (fun tech -> Baselines.Technique.removal_vulnerable tech) t.techniques
  in
  let proposed_immune =
    List.exists
      (fun tech ->
        tech.Baselines.Technique.lock_site = Baselines.Technique.Programmable_fabric
        && tech.Baselines.Technique.removal = Baselines.Technique.Nothing_to_remove)
      t.techniques
  in
  [
    ("bias-based prior work is removal-vulnerable", List.length removable >= 3);
    ("proposed scheme has nothing to remove", proposed_immune);
    ( "wrong keys corrupt every baseline (> 5 dB mean penalty)",
      List.for_all (fun p -> p.Baselines.Compare.wrong_key_penalty_db > 5.0) t.probes );
    ( "correct keys are clean on every baseline (< 1 dB)",
      List.for_all (fun p -> p.Baselines.Compare.zero_key_penalty_db < 1.0) t.probes );
    ( "the SAT attack breaks the digital-section lock in few queries",
      t.sat_on_mixlock.broken && t.sat_on_mixlock.oracle_queries < 64 );
    ( "cloning / overproduction / remarking defeated; LUT-scheme recycling is the known gap",
      match t.threat_outcomes with
      | [ clone; overproduce; lut_recycle; puf_recycle; remark ] ->
        (not clone.Core.Threat_model.attacker_success)
        && (not overproduce.Core.Threat_model.attacker_success)
        && lut_recycle.Core.Threat_model.attacker_success
        && (not puf_recycle.Core.Threat_model.attacker_success)
        && not remark.Core.Threat_model.attacker_success
      | _ -> false );
  ]

let print t =
  Printf.printf "# Comparison with prior analog locking (Section II)\n\n";
  Format.printf "%a@." Baselines.Compare.pp_table ();
  Printf.printf "\n## Wrong-key corruption probes (32 random wrong keys per scheme)\n";
  Printf.printf "%-30s %18s %18s\n" "technique" "wrong-key penalty" "correct-key check";
  List.iter
    (fun p ->
      Printf.printf "%-30s %12.1f dB %14.2f dB\n" p.Baselines.Compare.technique
        p.Baselines.Compare.wrong_key_penalty_db p.Baselines.Compare.zero_key_penalty_db)
    t.probes;
  Printf.printf "\n## Removal-attack analysis\n";
  List.iter
    (fun (name, verdict) ->
      let text =
        match verdict with
        | Baselines.Technique.Removable how -> "REMOVABLE: " ^ how
        | Baselines.Technique.Hard_to_remove why -> "hard: " ^ why
        | Baselines.Technique.Nothing_to_remove -> "nothing to remove"
      in
      Printf.printf "%-30s %s\n" name text)
    t.removal;
  Printf.printf "\n## SAT attack [17] vs lock families\n";
  Printf.printf
    "digital-section lock [9], %d key bits: %s in %d oracle queries\n"
    t.sat_on_mixlock.key_bits
    (if t.sat_on_mixlock.broken then "KEY RECOVERED" else "survived")
    t.sat_on_mixlock.oracle_queries;
  Printf.printf
    "programmability-fabric lock: not applicable — no Boolean oracle relation exists\n";
  Printf.printf "\n## Threat scenarios (Section IV-C)\n";
  List.iter
    (fun o ->
      Printf.printf "%-26s attacker %s  -- %s\n" o.Core.Threat_model.scenario
        (if o.Core.Threat_model.attacker_success then "SUCCEEDS" else "defeated")
        o.Core.Threat_model.detail)
    t.threat_outcomes;
  Context.print_checks (checks t)
