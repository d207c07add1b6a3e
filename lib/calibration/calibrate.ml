type report = {
  key : Rfchain.Config.t;
  snr_mod_db : float;
  snr_rx_db : float;
  sfdr_db : float;
  freq_error_hz : float;
  oscillation_measurements : int;
  snr_measurements : int;
  log : string list;
}

type failure =
  | Tank_dead of { log : string list; measurements : int }
  | Spec_shortfall of { report : report; shortfall_db : float }

type verdict = Converged | Degraded of failure

type outcome = {
  report : report;
  verdict : verdict;
  attempts : int;
}

let step14_fields =
  [
    "gmin_bias";
    "dac_bias";
    "loop_delay";
    "preamp_bias";
    "comp_bias";
    "cap_fine";
    "dac_trim";
    "preamp_trim";
    "vglna_gain";
  ]

(* Step 11's design formula: the delay-line setting that compensates the
   loop at this sampling rate for a typical die (per-die skew is then
   absorbed by step 14). *)
let delay_code_for_fs fs = max 0 (min 15 (int_of_float (Float.round (4.0 +. (4.0 *. fs /. 12e9)))))

let default_offsets = [ 1; -1; 2; -2; 4; -4; 8; -8 ]

(* Escalated probe ladder for retries: a die pushed off-corner by drift
   or faults may sit further from the nominal biases than the production
   ladder reaches. *)
let wide_offsets = [ 1; -1; 2; -2; 4; -4; 8; -8; 16; -16; 32; -32 ]

let attempts_counter = Telemetry.Counter.make "calibrate.attempts"
let retries_counter = Telemetry.Counter.make "calibrate.retries"
let converged_counter = Telemetry.Counter.make "calibrate.converged"
let tank_dead_counter = Telemetry.Counter.make "calibrate.tank_dead"
let spec_shortfall_counter = Telemetry.Counter.make "calibrate.spec_shortfall"

let attempt_with ~passes ~refine_sfdr ~offsets rx =
  Telemetry.Counter.incr attempts_counter;
  Telemetry.Span.with_ ~name:"calibrate.attempt" @@ fun () ->
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let fs = Rfchain.Receiver.fs rx in
  (* Steps 1-7: oscillation-mode centre-frequency tuning. *)
  match Osc_tune.run rx with
  | Error err ->
    say "steps 1-7: FAILED — %s" (Osc_tune.error_to_string err);
    let (Osc_tune.Tank_silent { measurements; _ }) = err in
    Error (Tank_dead { log = List.rev !log; measurements })
  | Ok osc ->
    say "steps 1-7: Cc=%d Cf=%d, freq error %.0f kHz, -Gm backed off to %d (%d osc. measurements)"
      osc.Osc_tune.cap_coarse osc.cap_fine (osc.freq_error_hz /. 1e3) osc.gm_q osc.measurements;
    (* Steps 8-13: restore loop, set delay and gain, nominal biases. *)
    let start =
      {
        Rfchain.Config.nominal with
        cap_coarse = osc.cap_coarse;
        cap_fine = osc.cap_fine;
        gm_q = osc.gm_q;
        loop_delay = delay_code_for_fs fs;
        vglna_gain = Rfchain.Vglna.segment_code ~p_dbm:(-25.0);
      }
    in
    say "steps 8-13: loop restored, delay code %d, VGLNA code %d, biases nominal"
      start.loop_delay start.vglna_gain;
    (* Step 14: iterative refinement driven by measured SNR (and SFDR),
       routed through the evaluation engine: cached across retries and
       batchable per probe ladder, with the bench-trial cost accrued on
       a local account so the reported measurement count is independent
       of cache warmth. *)
    let die = Engine.Request.die_of_receiver rx in
    let standard = Rfchain.Receiver.standard rx in
    let account = Engine.Service.Account.make () in
    let eval metric config =
      Engine.Service.eval ~account (Engine.Request.make ~die ~standard ~config metric)
    in
    let snr_of config = (eval Engine.Request.Snr_mod config).Metrics.Spec.snr_mod_db in
    let sfdr_of config = Option.get (eval Engine.Request.Sfdr config).Metrics.Spec.sfdr_db in
    (* SFDR contributes only its shortfall from spec plus a 2 dB
       production margin; once comfortably in spec, SNR rules. *)
    let score ~snr ~sfdr =
      let target = standard.Rfchain.Standards.min_sfdr_db +. 2.0 in
      snr -. (4.0 *. Float.max 0.0 (target -. sfdr))
    in
    let objective config =
      let snr = snr_of config in
      if not refine_sfdr then snr else score ~snr ~sfdr:(sfdr_of config)
    in
    let objective_batch configs =
      if not refine_sfdr then
        List.map
          (fun m -> m.Metrics.Spec.snr_mod_db)
          (Engine.Service.eval_batch ~account
             (List.map
                (fun config ->
                  Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod)
                configs))
      else
        (* One SNR and one SFDR capture per candidate, submitted as a
           single batch — the same trials the sequential objective
           spends, in batch order instead of interleaved. *)
        let reqs =
          List.concat_map
            (fun config ->
              [
                Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod;
                Engine.Request.make ~die ~standard ~config Engine.Request.Sfdr;
              ])
            configs
        in
        let rec pair = function
          | snr_m :: sfdr_m :: rest ->
            score ~snr:snr_m.Metrics.Spec.snr_mod_db
              ~sfdr:(Option.get sfdr_m.Metrics.Spec.sfdr_db)
            :: pair rest
          | [] -> []
          | [ _ ] -> assert false
        in
        pair (Engine.Service.eval_batch ~account reqs)
    in
    let outcome =
      Telemetry.Span.with_ ~name:"calibrate.step14" (fun () ->
          Coordinate_search.maximize ~objective ~objective_batch ~fields:step14_fields ~start
            ~offsets ~passes ())
    in
    let key = outcome.Coordinate_search.best in
    let snr_mod_db = snr_of key in
    let snr_rx_db =
      (eval (Engine.Request.Snr_rx { n_fft = 2048 }) key).Metrics.Spec.snr_rx_db
    in
    let sfdr_db = sfdr_of key in
    say "step 14: %d trials; SNR(mod) %.1f dB, SNR(rx) %.1f dB, SFDR %.1f dB"
      outcome.Coordinate_search.evaluations snr_mod_db snr_rx_db sfdr_db;
    let report =
      {
        key;
        snr_mod_db;
        snr_rx_db;
        sfdr_db;
        freq_error_hz = osc.freq_error_hz;
        oscillation_measurements = osc.measurements;
        snr_measurements = Engine.Service.Account.spent account;
        log = List.rev !log;
      }
    in
    (* Acceptance gate: the calibrated die must actually meet its
       standard.  SFDR only binds when the procedure refined it. *)
    let m =
      {
        Metrics.Spec.snr_mod_db;
        snr_rx_db;
        sfdr_db = (if refine_sfdr then Some sfdr_db else None);
      }
    in
    if Metrics.Spec.functional standard m then Ok report
    else Error (Spec_shortfall { report; shortfall_db = Metrics.Spec.spec_distance standard m })

let attempt ?(passes = 2) ?(refine_sfdr = true) rx =
  attempt_with ~passes ~refine_sfdr ~offsets:default_offsets rx

(* A die whose tank never oscillates yields no key at all; synthesise a
   report that says so in-band instead of raising. *)
let dead_report ~log ~measurements =
  {
    key = Rfchain.Config.nominal;
    snr_mod_db = Float.neg_infinity;
    snr_rx_db = Float.neg_infinity;
    sfdr_db = Float.neg_infinity;
    freq_error_hz = Float.infinity;
    oscillation_measurements = measurements;
    snr_measurements = 0;
    log;
  }

(* The retry loop is the engine's generic deterministic
   retry-with-escalation policy: each retry runs one more refinement
   pass over the wide probe ladder, a silent tank is terminal, and the
   error folded across attempts is the best (smallest) spec shortfall
   seen — ties keep the earlier attempt, matching the original
   hand-rolled loop exactly. *)
let run ?(passes = 2) ?(refine_sfdr = true) ?(max_retries = 2) rx =
  Telemetry.Span.with_ ~name:"calibrate.run" @@ fun () ->
  let policy =
    Engine.Retry.policy ~max_attempts:(max_retries + 1)
      ~initial:(passes, default_offsets)
      ~escalate:(fun ~attempt:_ (p, _) -> (p + 1, wide_offsets))
      ()
  in
  let retryable = function Tank_dead _ -> false | Spec_shortfall _ -> true in
  let keep prev last =
    match prev, last with
    | Spec_shortfall { shortfall_db = a; _ }, Spec_shortfall { shortfall_db = b; _ } ->
      if a <= b then prev else last
    | _, Tank_dead _ -> last
    | Tank_dead _, _ -> prev (* unreachable: tank death is terminal *)
  in
  let o =
    Engine.Retry.run ~retryable ~keep policy (fun ~attempt (p, offsets) ->
        if attempt > 1 then begin
          Telemetry.Counter.incr retries_counter;
          (* An escalation that may still succeed is routine (fig10
             hits one on a healthy run); only degraded outcomes warn. *)
          Telemetry.Log.info
            ~fields:[ ("attempt", string_of_int attempt); ("passes", string_of_int p) ]
            "calibrate: escalating retry"
        end;
        attempt_with ~passes:p ~refine_sfdr ~offsets rx)
  in
  match o.Engine.Retry.result with
  | Ok report ->
    Telemetry.Counter.incr converged_counter;
    { report; verdict = Converged; attempts = o.Engine.Retry.attempts }
  | Error (Tank_dead { log; measurements } as f) ->
    (* No amount of re-running steps 1-7 revives a silent tank. *)
    Telemetry.Counter.incr tank_dead_counter;
    Telemetry.Log.warn
      ~fields:[ ("attempts", string_of_int o.Engine.Retry.attempts) ]
      "calibrate: degraded (tank dead)";
    let report = dead_report ~log ~measurements in
    { report; verdict = Degraded f; attempts = o.Engine.Retry.attempts }
  | Error (Spec_shortfall { report; _ } as f) ->
    Telemetry.Counter.incr spec_shortfall_counter;
    Telemetry.Log.warn
      ~fields:[ ("attempts", string_of_int o.Engine.Retry.attempts) ]
      "calibrate: degraded (spec shortfall)";
    { report; verdict = Degraded f; attempts = o.Engine.Retry.attempts }

let quick rx =
  let outcome = run ~passes:1 ~refine_sfdr:false ~max_retries:0 rx in
  outcome.report.key
