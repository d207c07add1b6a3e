type t = {
  seed : int;
  standard : Rfchain.Standards.t;
  chip : Circuit.Process.chip;
  rx : Rfchain.Receiver.t;
  calibration : Calibration.Calibrate.report;
  golden : Rfchain.Config.t;
}

let create ?(seed = 42) ?(standard = Rfchain.Standards.max_frequency) ?(fast = false) () =
  Telemetry.Span.with_ ~name:"context.create"
    ~attrs:[ ("seed", string_of_int seed); ("standard", standard.Rfchain.Standards.name) ]
  @@ fun () ->
  let chip = Circuit.Process.fabricate ~seed () in
  let rx = Rfchain.Receiver.create chip standard in
  let outcome =
    if fast then Calibration.Calibrate.run ~passes:1 rx else Calibration.Calibrate.run rx
  in
  let calibration = outcome.Calibration.Calibrate.report in
  { seed; standard; chip; rx; calibration; golden = calibration.Calibration.Calibrate.key }

(* The invalid-key ensemble is part of the experimental identity of a
   context: distinct chips must face distinct ensembles (the historical
   fixed seed 2020 gave every context the same 100 keys regardless of
   [t.seed]).  The derivation keeps 2020 as the paper-era base so the
   intent stays visible, and mixes in the context seed with an odd
   multiplier so nearby seeds land on unrelated ensembles. *)
let ensemble_seed t = 2020 + (7919 * t.seed)

let invalid_ensemble ?(n = 100) t =
  let rng = Sigkit.Rng.create (ensemble_seed t) in
  List.init n (fun _ -> Rfchain.Config.random rng)

let deceptive_example t =
  (* Prefer an open-loop passthrough key from the ensemble itself (the
     paper's key 7 was among the random draws); pick the one with a
     non-oscillating tank so the output is an analog waveform rather
     than rail-to-rail oscillation. *)
  let candidates =
    List.filter
      (fun c ->
        Core.Lock_eval.is_open_loop_passthrough c
        && c.Rfchain.Config.gmin_enable
        && not (Rfchain.Sdm.oscillates (Rfchain.Receiver.sdm_of_config t.rx c)))
      (invalid_ensemble t)
  in
  match candidates with
  | c :: _ -> c
  | [] ->
    (* Statistically ~6 such keys exist per 100; fall back to a forced
       variant of the first ensemble key if a reseeded run has none. *)
    (match invalid_ensemble t with
    | c :: _ -> { c with fb_enable = false; comp_clock_enable = false; gmin_enable = true; gm_q = 8 }
    | [] -> assert false)

let print_checks checks =
  List.iter (fun (name, ok) -> Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name) checks
