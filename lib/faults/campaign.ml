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

(* Campaign-internal control flow for the two supervised stops.  Both
   are raised only between chunks (or from a cancellation poll), caught
   once at the top of [run], and never escape the library. *)
exception Deadline
exception Halt of string

(* Evaluate a request list by handing the scheduler the whole grid at
   once (DESIGN §14) and consuming completions out of order as lanes
   finish them — there is no per-chunk submit barrier any more.  Every
   delivered completion is already journalled (on the main domain,
   before cache publication) and counts into [completed]; the campaign
   deadline and the injected interrupt are both checked before every
   pull, so [completed] is exact — to the cell — when either fires.
   [interrupt_after] halts at precisely that many completed cells, the
   deterministic stand-in for a SIGINT; assembly by index restores
   request order bit-identically to the old chunked evaluation. *)
let eval_streamed ?engine ~tok ~completed ~total ~interrupt_after reqs =
  let halt_check () =
    match interrupt_after with
    | Some k when !completed >= k -> raise (Halt "interrupt (injected)")
    | _ -> ()
  in
  halt_check ();
  Telemetry.Cancel.poll ();
  let n = List.length reqs in
  let deadline_s =
    match Option.map Telemetry.Cancel.remaining_s tok with
    | None -> None
    | Some None -> Some infinity
    | Some (Some r) -> if r <= 0.0 then raise Deadline else Some r
  in
  let stream = Engine.Service.eval_stream ?engine ?deadline_s reqs in
  (* Whatever stops the consumption loop — the injected halt, a
     deadline, a SIGINT cancellation — releases the scheduler before
     propagating, so the partial-report paths above us never leave the
     pool occupied. *)
  Fun.protect ~finally:(fun () -> Engine.Service.stream_abort stream) @@ fun () ->
  let rec pull delivered =
    if delivered < n then begin
      halt_check ();
      Telemetry.Cancel.poll ();
      match Engine.Service.stream_next stream with
      | Ok (Some _) ->
        incr completed;
        (* Live monitoring: progress now lands per completed cell, not
           per 16-cell chunk. *)
        Telemetry.Monitor.set_progress ~completed:!completed ~total:(max !total !completed);
        pull (delivered + 1)
      | Ok None -> ()
      | Error (Engine.Service.Timed_out _) -> raise Deadline
      | Error (Engine.Service.Budget_exhausted _) ->
        assert false (* no account is attached to campaign grids *)
    end
  in
  pull 0;
  match Engine.Service.stream_drain stream with
  | Ok ms -> ms
  | Error _ -> assert false (* fully delivered above *)

let run ?(dies = 3) ?(seed = 42) ?engine ?deadline_s ?interrupt_after standard =
  if dies < 1 then Error (Error.Empty_sweep { what = "dies" })
  else begin
    Telemetry.Span.with_ ~name:"faults.campaign"
      ~attrs:[ ("dies", string_of_int dies); ("standard", standard.Rfchain.Standards.name) ]
    @@ fun () ->
    let min_snr = standard.Rfchain.Standards.min_snr_db in
    let tok = Option.map (fun s -> Telemetry.Cancel.with_deadline s) deadline_s in
    (* Install the campaign deadline as the ambient token for the
       main-domain stages (lot calibration, demos) so their simulator
       polls observe it; streamed stages carry it explicitly into the
       worker domains via [eval_stream ~deadline_s]. *)
    let with_tok f = match tok with None -> f () | Some tk -> Telemetry.Cancel.with_token tk f in
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
    let eval_streamed reqs = eval_streamed ?engine ~tok ~completed ~total ~interrupt_after reqs in
    Telemetry.Log.info
      ~fields:
        [
          ("standard", standard.Rfchain.Standards.name);
          ("dies", string_of_int dies);
          ("seed", string_of_int seed);
          ("deadline_s", match deadline_s with Some d -> Printf.sprintf "%g" d | None -> "-");
        ]
      "campaign: starting";
    match
      with_tok @@ fun () ->
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
         engine request up front, evaluate in fixed-size chunks (each
         chunk fans out across the domains backend under --jobs and is
         journalled cell by cell), then zip the SNRs back in grid
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
      Telemetry.Monitor.set_progress ~completed:!completed ~total:!total;
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
              in_spec = lock_margin_db >= 0.0;
            })
          cell_points cell_snrs;
      (* Single-bit corruption cliff: flip each key bit on the healthy
         primary die.  Fast SNR probes go out chunked; only apparent
         survivors pay for the full spec check (a second, much smaller
         pass). *)
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
      let survivor_bits = List.filter (fun (_, snr) -> snr >= min_snr) probes in
      total := !total + List.length survivor_bits;
      Telemetry.Monitor.set_progress ~completed:!completed ~total:!total;
      let survivor_checks =
        eval_streamed
          (List.map
             (fun (bit, _) ->
               Engine.Request.make ~die:die0 ~standard ~config:(corrupted_of bit)
                 Engine.Request.Full)
             survivor_bits)
        |> List.map2
             (fun (bit, _) m -> (bit, (Metrics.Spec.check standard m).Metrics.Spec.functional))
             survivor_bits
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
    | exception Deadline ->
      Telemetry.Log.warn
        ~fields:[ ("completed", string_of_int !completed); ("total", string_of_int !total) ]
        "campaign: deadline exceeded";
      Error
        (Error.Deadline_exceeded
           {
             deadline_s = Option.value deadline_s ~default:0.0;
             completed = !completed;
             total = !total;
           })
    | exception Telemetry.Cancel.Cancelled reason
      when deadline_s <> None && reason = Telemetry.Cancel.deadline_reason ->
      Telemetry.Log.warn
        ~fields:[ ("completed", string_of_int !completed); ("total", string_of_int !total) ]
        "campaign: deadline exceeded";
      Error
        (Error.Deadline_exceeded
           {
             deadline_s = Option.value deadline_s ~default:0.0;
             completed = !completed;
             total = !total;
           })
    | exception Halt reason ->
      Telemetry.Log.warn
        ~fields:
          [
            ("reason", reason);
            ("completed", string_of_int !completed);
            ("total", string_of_int !total);
          ]
        "campaign: interrupted";
      interrupted_r := Some reason;
      Ok (finish ())
    | exception Telemetry.Cancel.Cancelled reason ->
      (* A SIGINT (or an outer token): everything journalled so far is
         durable; report what completed, marked incomplete. *)
      Telemetry.Log.warn
        ~fields:
          [
            ("reason", reason);
            ("completed", string_of_int !completed);
            ("total", string_of_int !total);
          ]
        "campaign: interrupted";
      interrupted_r := Some reason;
      Ok (finish ())
  end

let run_by_name ?dies ?seed ?engine ?deadline_s ?interrupt_after name =
  match Rfchain.Standards.find_opt name with
  | None ->
    Error (Error.Unknown_standard { requested = name; known = Rfchain.Standards.names })
  | Some standard -> run ?dies ?seed ?engine ?deadline_s ?interrupt_after standard

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
