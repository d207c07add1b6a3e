type cell = {
  die_seed : int;
  mechanism : string;
  severity : Fault.severity;
  faults : Fault.t list;
  snr_mod_db : float;
  lock_margin_db : float;
  in_spec : bool;
}

type stat = {
  s_mechanism : string;
  s_severity : Fault.severity;
  n : int;
  mean_margin_db : float;
  min_margin_db : float;
  max_margin_db : float;
  survival_rate : float;
}

type flip_probe = {
  bit : int;
  flip_snr_mod_db : float;
  survives_full : bool;
}

type demo = {
  label : string;
  demo_fault : Fault.t;
  outcome : Calibration.Calibrate.outcome;
}

type t = {
  standard : Rfchain.Standards.t;
  seed : int;
  dies : int;
  golden_snr_mod_db : float;
  cells : cell list;
  stats : stat list;
  flips : flip_probe list;
  unlocked_bits : int list;
  demos : demo list;
  interrupted : string option;
  completed_cells : int;
}

(* The sweep grid: every mechanism of the taxonomy, seeded per die so
   stochastic faults (upsets, bursts, stuck placement) vary across the
   lot while staying reproducible. *)
let mechanisms =
  [
    ("pvt-drift", fun ~die:_ severity -> [ Fault.pvt severity ]);
    ("comparator-drift", fun ~die:_ severity -> [ Fault.comparator_drift severity ]);
    ("aging", fun ~die:_ severity -> [ Fault.aging severity ]);
    ("burst-noise", fun ~die severity -> [ Fault.burst_noise ~seed:die severity ]);
    ("register-flip", fun ~die severity -> [ Fault.register_upsets ~seed:die severity ]);
    ("stuck-bits", fun ~die severity -> [ Fault.random_stuck ~seed:die severity ]);
  ]

let mechanism_names = List.map fst mechanisms

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let stats_of cells =
  List.concat_map
    (fun (mech, _) ->
      List.map
        (fun severity ->
          let group =
            List.filter (fun c -> c.mechanism = mech && c.severity = severity) cells
          in
          let margins = List.map (fun c -> c.lock_margin_db) group in
          let survivors = List.filter (fun c -> c.in_spec) group in
          {
            s_mechanism = mech;
            s_severity = severity;
            n = List.length group;
            mean_margin_db = mean margins;
            min_margin_db = List.fold_left Float.min infinity margins;
            max_margin_db = List.fold_left Float.max neg_infinity margins;
            survival_rate =
              float_of_int (List.length survivors) /. float_of_int (max 1 (List.length group));
          })
        Fault.all_severities)
    mechanisms

let cells_counter = Telemetry.Counter.make "faults.cells"
let flip_probes_counter = Telemetry.Counter.make "faults.flip_probes"
let demos_counter = Telemetry.Counter.make "faults.demos"

(* Evaluate a request list as one stream (DESIGN §14): the scheduler
   gets the whole grid at once and completions are consumed out of
   order as lanes finish them.  Every delivered completion is already
   journalled (on the main domain, before cache publication) and
   counts into [completed]; the injected interrupt and the cancellation
   poll both run before every pull, so [completed] is exact — to the
   cell — when the deadline or an interrupt stops the stream.
   [interrupt_after] stops at precisely that many completed cells, the
   deterministic stand-in for a SIGINT; assembly by index restores
   request order. *)
let eval_streamed ?engine ~completed ~interrupt_after reqs =
  let check () =
    (match interrupt_after with
    | Some k when !completed >= k -> raise (Telemetry.Cancel.Cancelled "interrupt (injected)")
    | _ -> ());
    Telemetry.Cancel.poll ()
  in
  check ();
  let n = List.length reqs in
  let stream = Engine.Service.eval_stream ?engine reqs in
  (* Whatever stops the consumption loop — the injected interrupt, the
     deadline, a SIGINT — releases the scheduler before propagating, so
     the partial-report path above us never leaves the pool occupied. *)
  Fun.protect ~finally:(fun () -> Engine.Service.stream_abort stream) @@ fun () ->
  let rec pull delivered =
    if delivered < n then begin
      check ();
      match Engine.Service.stream_next stream with
      | Some _ ->
        incr completed;
        pull (delivered + 1)
      | None -> ()
    end
  in
  pull 0;
  Engine.Service.stream_drain stream

let run ?(dies = 3) ?(seed = 42) ?engine ?interrupt_after standard =
  if dies < 1 then Error (Error.Empty_sweep { what = "dies" })
  else begin
    Telemetry.Span.with_ ~name:"faults.campaign"
      ~attrs:[ ("dies", string_of_int dies); ("standard", standard.Rfchain.Standards.name) ]
    @@ fun () ->
    let min_snr = standard.Rfchain.Standards.min_snr_db in
    let deadline =
      Engine.Service.deadline
        (match engine with Some e -> e | None -> Engine.Service.default ())
    in
    (* Install the engine's deadline as the ambient token for the
       main-domain stages (lot calibration, demos, the poll before each
       pull) so their polls observe it; the engine installs it around
       every evaluation it computes, on any domain. *)
    let with_deadline f =
      match deadline with None -> f () | Some (tok, _) -> Telemetry.Cancel.with_token tok f
    in
    (* Partial-state accumulators: whatever is filled in when an
       interrupt lands becomes the partial report. *)
    let completed = ref 0 in
    let total = ref 0 in
    let golden_r = ref nan in
    let cells_r = ref [] in
    let flips_r = ref [] in
    let unlocked_r = ref [] in
    let demos_r = ref [] in
    let interrupted_r = ref None in
    let finish () =
      {
        standard;
        seed;
        dies;
        golden_snr_mod_db = !golden_r;
        cells = !cells_r;
        stats = stats_of !cells_r;
        flips = !flips_r;
        unlocked_bits = !unlocked_r;
        demos = !demos_r;
        interrupted = !interrupted_r;
        completed_cells = !completed;
      }
    in
    let eval_streamed reqs = eval_streamed ?engine ~completed ~interrupt_after reqs in
    Telemetry.Log.info
      ~fields:
        [
          ("standard", standard.Rfchain.Standards.name);
          ("dies", string_of_int dies);
          ("seed", string_of_int seed);
          ("deadline_s", match deadline with Some (_, d) -> Printf.sprintf "%g" d | None -> "-");
        ]
      "campaign: starting";
    match
      with_deadline @@ fun () ->
      (* Calibrate each die of the lot while healthy: the campaign asks
         what happens to a *provisioned* part when a fault arrives. *)
      let lot =
        List.init dies (fun i ->
            Telemetry.Cancel.poll ();
            let die_seed = seed + (17 * i) in
            Telemetry.Span.with_ ~name:"faults.die" ~attrs:[ ("die", string_of_int die_seed) ]
              (fun () ->
                let chip = Circuit.Process.fabricate ~seed:die_seed () in
                let rx = Rfchain.Receiver.create chip standard in
                (die_seed, chip, Calibration.Calibrate.quick rx)))
      in
      let chip0, key0 =
        match lot with
        | (_, chip, key) :: _ -> (chip, key)
        | [] -> (Circuit.Process.fabricate ~seed (), Rfchain.Config.nominal) (* dies >= 1 *)
      in
      let die0 = Engine.Request.die_of_chip chip0 in
      golden_r :=
        (Engine.Service.eval ?engine
           (Engine.Request.make ~die:die0 ~standard ~config:key0 Engine.Request.Snr_mod))
          .Metrics.Spec.snr_mod_db;
      (* Fault x severity x die grid, golden key applied to the faulted
         part.  The grid is embarrassingly parallel: build every cell's
         engine request up front, stream the whole grid (it fans out
         across the domains backend under --jobs and is journalled cell
         by cell as completions arrive), then zip the SNRs back in grid
         order. *)
      let cell_points =
        List.concat_map
          (fun (die_seed, chip, key) ->
            List.concat_map
              (fun (mech, make) ->
                List.map
                  (fun severity ->
                    Telemetry.Counter.incr cells_counter;
                    let faults = make ~die:die_seed severity in
                    (die_seed, mech, severity, faults, chip, key))
                  Fault.all_severities)
              mechanisms)
          lot
      in
      total := List.length cell_points + Rfchain.Config.key_bits;
      let cell_snrs =
        eval_streamed
          (List.map
             (fun (_, _, _, faults, chip, key) ->
               Engine.Request.make ~die:(Inject.die chip faults) ~standard ~config:key
                 Engine.Request.Snr_mod)
             cell_points)
      in
      cells_r :=
        List.map2
          (fun (die_seed, mech, severity, faults, _, _) m ->
            let snr_mod_db = m.Metrics.Spec.snr_mod_db in
            let snr_mod_db = if Float.is_nan snr_mod_db then neg_infinity else snr_mod_db in
            let lock_margin_db = snr_mod_db -. min_snr in
            {
              die_seed;
              mechanism = mech;
              severity;
              faults;
              snr_mod_db;
              lock_margin_db;
              in_spec = Metrics.Spec.snr_meets standard snr_mod_db;
            })
          cell_points cell_snrs;
      (* Single-bit corruption cliff: flip each key bit on the healthy
         primary die.  Fast SNR probes go out as one stream; only
         apparent survivors pay for the full spec check (a second, much
         smaller stream). *)
      let corrupted_of bit =
        Rfchain.Config.of_bits
          (Int64.logxor (Rfchain.Config.to_bits key0) (Int64.shift_left 1L bit))
      in
      let bits = List.init Rfchain.Config.key_bits (fun bit -> bit) in
      let probe_snrs =
        eval_streamed
          (List.map
             (fun bit ->
               Telemetry.Counter.incr flip_probes_counter;
               Engine.Request.make ~die:die0 ~standard ~config:(corrupted_of bit)
                 Engine.Request.Snr_mod)
             bits)
        |> List.map (fun m ->
               let snr = m.Metrics.Spec.snr_mod_db in
               if Float.is_nan snr then neg_infinity else snr)
      in
      let probes = List.combine bits probe_snrs in
      let survivor_bits =
        List.filter (fun (_, snr) -> Metrics.Spec.snr_meets standard snr) probes
      in
      total := !total + List.length survivor_bits;
      let survivor_checks =
        eval_streamed
          (List.map
             (fun (bit, _) ->
               Engine.Request.make ~die:die0 ~standard ~config:(corrupted_of bit)
                 Engine.Request.Full)
             survivor_bits)
        |> List.map2 (fun (bit, _) m -> (bit, Metrics.Spec.functional standard m)) survivor_bits
      in
      flips_r :=
        List.map
          (fun (bit, snr) ->
            let survives_full =
              match List.assoc_opt bit survivor_checks with
              | Some functional -> functional
              | None -> false
            in
            { bit; flip_snr_mod_db = snr; survives_full })
          probes;
      unlocked_r :=
        List.filter_map (fun p -> if p.survives_full then Some p.bit else None) !flips_r;
      (* Calibration-defeat demos: faults severe enough that the 14-step
         procedure cannot converge, exercising both structured failure
         paths (dead tank; completed-but-out-of-spec). *)
      let demo label fault =
        Telemetry.Cancel.poll ();
        Telemetry.Counter.incr demos_counter;
        Telemetry.Span.with_ ~name:"faults.demo" ~attrs:[ ("label", label) ] @@ fun () ->
        let rx = Inject.receiver chip0 standard [ fault ] in
        let d =
          {
            label;
            demo_fault = fault;
            outcome = Calibration.Calibrate.run ~passes:1 ~refine_sfdr:false ~max_retries:1 rx;
          }
        in
        (* Accumulate as each demo completes, so an interrupt between
           demos still reports the finished one. *)
        demos_r := !demos_r @ [ d ]
      in
      demo "Q-enhancement driver dead" (Fault.stuck_field ~name:"gm_q" ~code:0);
      demo "comparator clock stuck (buffer mode)"
        (Fault.stuck_field ~name:"comp_clock_enable" ~code:0);
      Ok (finish ())
    with
    | result -> result
    | exception Telemetry.Cancel.Cancelled reason -> (
      let fields =
        [ ("completed", string_of_int !completed); ("total", string_of_int !total) ]
      in
      match deadline with
      | Some (_, deadline_s) when reason = Telemetry.Cancel.deadline_reason ->
        Telemetry.Log.warn ~fields "campaign: deadline exceeded";
        Error
          (Error.Deadline_exceeded { deadline_s; completed = !completed; total = !total })
      | _ ->
        (* A SIGINT or the injected interrupt: everything journalled so
           far is durable; report what completed, marked incomplete. *)
        Telemetry.Log.warn ~fields:(("reason", reason) :: fields) "campaign: interrupted";
        interrupted_r := Some reason;
        Ok (finish ()))
  end

let run_by_name ?dies ?seed ?engine ?interrupt_after name =
  match Rfchain.Standards.find_opt name with
  | None ->
    Error (Error.Unknown_standard { requested = name; known = Rfchain.Standards.names })
  | Some standard -> run ?dies ?seed ?engine ?interrupt_after standard

let complete t = t.interrupted = None

let is_degraded_as outcome ~tank_dead =
  match outcome.Calibration.Calibrate.verdict with
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Tank_dead _) -> tank_dead
  | Calibration.Calibrate.Degraded (Calibration.Calibrate.Spec_shortfall _) -> not tank_dead
  | Calibration.Calibrate.Converged -> false

let checks t =
  let mild_pvt =
    List.filter (fun c -> c.mechanism = "pvt-drift" && c.severity = Fault.Mild) t.cells
  in
  let graded mech =
    let mean_at severity =
      match
        List.find_opt (fun s -> s.s_mechanism = mech && s.s_severity = severity) t.stats
      with
      | Some s -> s.mean_margin_db
      | None -> nan
    in
    mean_at Fault.Severe <= mean_at Fault.Mild +. 0.5
  in
  let killed = List.length (List.filter (fun p -> not p.survives_full) t.flips) in
  [
    ( "valid key survives mild PVT drift on every die",
      mild_pvt <> [] && List.for_all (fun c -> c.in_spec) mild_pvt );
    ( "some severe fault defeats the lock margin",
      List.exists (fun c -> c.severity = Fault.Severe && not c.in_spec) t.cells );
    ( "response is graded: severe margin <= mild margin per mechanism",
      List.for_all graded mechanism_names );
    ( "single-bit key corruption kills >= 55/64 bits",
      killed >= 55 );
    ( "dead tank reported as structured Tank_dead (no exception)",
      List.exists (fun d -> is_degraded_as d.outcome ~tank_dead:true) t.demos );
    ( "defeated calibration reported as Spec_shortfall (no exception)",
      List.exists (fun d -> is_degraded_as d.outcome ~tank_dead:false) t.demos );
  ]
