(* The stage-ledger pass of the traced run.

   It replays a workload's request mix through the receiver's stages
   one public call at a time — stimulus synthesis, VGLNA, ΣΔ create and
   run, slice+mixer, decimator, then the measurement step — and through
   [Receiver.run] on the same input, so the stage spans can be checked
   to add up to the whole.  It also times the engine's own overhead
   ([Service.eval] against [Measure] on the same request), journal
   records, oscillation-mode tuning, fault-campaign cells and, where
   the workload itself runs no attack, a short annealing attack. *)

let standard = Workloads.standard
let settle = 1024
let short_len = Metrics.Snr.default_fft_points
let rx_fft = 2048
let long_len = rx_fft * Rfchain.Decimator.ratio Rfchain.Decimator.default_config
let p_dbm = Engine.Request.default_p_dbm

type kind =
  | Tone of int  (* single tone of this record length *)
  | Two_tone     (* the SFDR stimulus, 8192 samples *)

(* A pass's receiver records come in three shapes: 8192-sample tones
   (SNR at the modulator tap, linearity probes), 131072-sample tones
   (SNR at the receiver output) and 8192-sample two-tones (SFDR, which
   the engine only measures next to a receiver-output SNR).  The
   counters give the record count and total samples, which fix the
   long-record count; [size] records are drawn in those proportions. *)
let mix ~runs ~samples ~with_sfdr ~size =
  let long = max 0 ((samples - (short_len * runs)) / (long_len - short_len)) in
  let two = if with_sfdr then min long (runs - long) else 0 in
  let short = max 0 (runs - long - two) in
  let share n =
    if n = 0 then 0 else max 3 (int_of_float (Float.round (float size *. float n /. float runs)))
  in
  (* Spread each shape evenly over the pass, so no stage sees one
     length in a long run. *)
  let spread n kind = List.init n (fun j -> ((float j +. 0.5) /. float n, kind)) in
  List.concat [ spread (share short) (Tone short_len); spread (share long) (Tone long_len); spread (share two) Two_tone ]
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

type result = {
  records : int;
  replica_exact : bool;  (* stage-by-stage chain == Receiver.run, bit for bit *)
  engine_exact : bool;   (* Service.eval == Measure on the same request *)
  stage_samples : int;   (* record samples that went through the stages *)
  overhead_us : float list;
  query_ms : float option;
}

let time f =
  let t0 = Telemetry.Clock.now_ns () in
  let r = f () in
  (r, Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Scratch buffers of the replica chain, one set per record length. *)
let buffers = Hashtbl.create 4

let buffers_for n =
  match Hashtbl.find_opt buffers n with
  | Some b -> b
  | None ->
    let b = (Array.make (settle + n) 0.0, Array.make (settle + n) 0.0, Array.make n 0.0, Array.make n 0.0) in
    Hashtbl.add buffers n b;
    b

(* Receiver.run, stage by stage, with the same settle-prefix glue. *)
let replica chip vglna config input =
  let n = Array.length input in
  let extended, mod_full, i_ch, q_ch = buffers_for n in
  for i = 0 to settle + n - 1 do
    extended.(i) <- input.((i + n - (settle mod n)) mod n)
  done;
  let fs = Rfchain.Standards.fs standard in
  Trace.span "rfchain.vglna" (fun () ->
      Rfchain.Vglna.run_inplace vglna ~code:config.Rfchain.Config.vglna_gain extended);
  let sdm = Trace.span "rfchain.sdm.create" (fun () -> Rfchain.Sdm.create chip ~fs config) in
  Trace.span "rfchain.sdm.run" (fun () -> Rfchain.Sdm.run_into sdm extended mod_full);
  let mod_output = Array.sub mod_full settle n in
  Trace.span "rfchain.mixer" (fun () ->
      Rfchain.Mixer.downconvert_into ~slice:true mod_full ~pos:settle ~n ~i_out:i_ch ~q_out:q_ch);
  let bi, bq =
    Trace.span "rfchain.decimator" (fun () ->
        Rfchain.Decimator.run_iq Rfchain.Decimator.default_config (i_ch, q_ch))
  in
  (mod_output, bi, bq)

let record ~rx ~vglna ~chip ~index kind config =
  let fs = Rfchain.Receiver.fs rx in
  let n = match kind with Tone n -> n | Two_tone -> short_len in
  let stimulus () =
    match kind with
    | Tone n ->
      let f = Rfchain.Receiver.test_tone_frequency rx ~n in
      (f, 0.0, Sigkit.Waveform.tone_dbm ~p_dbm ~freq:f ~fs n)
    | Two_tone ->
      let f1, f2 = Metrics.Sfdr.tones_for ~f0:standard.Rfchain.Standards.f0_hz ~fs ~n in
      (f1, f2, Sigkit.Waveform.two_tone_dbm ~p_dbm ~f1 ~f2 ~fs n)
  in
  let f1, f2, input = Trace.span "sigkit.waveform" stimulus in
  let via_stages () = Trace.span "ledger.stages" (fun () -> replica chip vglna config input) in
  let via_receiver () =
    Trace.span "rfchain.receiver.run" (fun () -> Rfchain.Receiver.run rx ~analog:config ~input ())
  in
  (* Alternate which path runs first so neither always finds warm
     caches. *)
  let (m, bi, bq), res =
    if index land 1 = 0 then
      let s = via_stages () in
      (s, via_receiver ())
    else
      let r = via_receiver () in
      (via_stages (), r)
  in
  let exact =
    bits_equal m res.Rfchain.Receiver.mod_output
    && bits_equal bi res.Rfchain.Receiver.baseband_i
    && bits_equal bq res.Rfchain.Receiver.baseband_q
  in
  let osr = Rfchain.Standards.oversampling_ratio in
  (match kind with
  | Tone n when n = long_len ->
    ignore
      (Trace.span "metrics.snr.baseband_iq" (fun () ->
           Metrics.Snr.of_baseband_iq ~n_fft:rx_fft ~fs:res.Rfchain.Receiver.fs_baseband
             ~f_signal:(f1 -. (fs /. 4.0))
             ~f_band:(Rfchain.Standards.band_hz standard /. 2.0)
             (bi, bq)))
  | Tone _ ->
    ignore
      (Trace.span "sigkit.spectrum.periodogram" (fun () -> Sigkit.Spectrum.periodogram ~fs m));
    ignore (Trace.span "metrics.snr.bandpass" (fun () -> Metrics.Snr.of_bandpass ~fs ~f_signal:f1 ~osr m))
  | Two_tone ->
    ignore (Trace.span "metrics.sfdr" (fun () -> Metrics.Sfdr.of_bandpass ~fs ~f1 ~f2 ~osr m)));
  (exact, n)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [Service.eval] on a cold private engine against [Measure] on a
   prebuilt receiver, for the same Snr_mod request. *)
let engine_overhead ~chip keys =
  let engine = Engine.Service.create ~jobs:1 () in
  let die = Engine.Request.die_of_chip chip in
  let rx = Rfchain.Receiver.create chip standard in
  let pairs =
    List.mapi
      (fun i config ->
        let req = Engine.Request.make ~die ~standard ~config Engine.Request.Snr_mod in
        let via_engine () =
          time (fun () ->
              Trace.span "engine.service.eval" (fun () ->
                  (Engine.Service.eval ~engine req).Metrics.Spec.snr_mod_db))
        in
        let via_measure () =
          time (fun () ->
              Trace.span "metrics.measure.snr_mod" (fun () ->
                  Metrics.Measure.snr_mod_db (Metrics.Measure.create ~p_dbm rx) config))
        in
        let (e, te), (m, tm) =
          if i land 1 = 0 then
            let e = via_engine () in
            (e, via_measure ())
          else
            let m = via_measure () in
            (via_engine (), m)
        in
        (Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float m), 1000.0 *. (te -. tm)))
      keys
  in
  Engine.Service.shutdown engine;
  (List.for_all fst pairs, List.map snd pairs)

let journal_records ~out_dir =
  let path = Filename.concat out_dir "ledger.journal" in
  match Engine.Checkpoint.load ~resume:false path with
  | Error c -> failwith (Engine.Checkpoint.corruption_to_string c)
  | Ok cp ->
    let value =
      {
        Engine.Cache.measurement = { Metrics.Spec.snr_mod_db = 42.5; snr_rx_db = nan; sfdr_db = None };
        trial_cost = 1;
      }
    in
    for i = 1 to 8 do
      Trace.span "engine.checkpoint.record" (fun () ->
          Engine.Checkpoint.record cp (Printf.sprintf "ledger-%d" i) value)
    done;
    Engine.Checkpoint.close cp;
    Sys.remove path

let fault_cells ~chip ~golden =
  let engine = Engine.Service.create ~jobs:1 () in
  let die_seed = Circuit.Process.seed chip in
  List.iter
    (fun severity ->
      List.iter
        (fun faults ->
          let req =
            Engine.Request.make ~die:(Faults.Inject.die chip faults) ~standard ~config:golden
              Engine.Request.Snr_mod
          in
          Trace.span "faults.cell" (fun () -> ignore (Engine.Service.eval ~engine req)))
        Faults.Fault.
          [
            [ pvt severity ];
            [ comparator_drift severity ];
            [ aging severity ];
            [ burst_noise ~seed:die_seed severity ];
            [ register_upsets ~seed:die_seed severity ];
            [ random_stuck ~seed:die_seed severity ];
          ])
    Faults.Fault.all_severities;
  Engine.Service.shutdown engine

(* A short annealing run on a refabricated die, for workloads whose
   own section makes no oracle queries. *)
let probe_attack ~chip ~golden =
  let key = Core.Key.make ~standard ~chip golden in
  let oracle = Attacks.Oracle.deploy standard ~chip_seed:(Circuit.Process.seed chip) ~key in
  let refab = Attacks.Oracle.refabricate oracle ~attacker_seed:(Circuit.Process.seed chip + 1) in
  let q0 = Attacks.Oracle.global_queries () in
  let _, ms =
    time (fun () ->
        Trace.span "attacks.optimize.simulated_annealing" (fun () ->
            Attacks.Optimize.simulated_annealing ~budget:24 refab))
  in
  ms /. float_of_int (max 1 (Attacks.Oracle.global_queries () - q0))

let run ~out_dir ~runs ~samples ~with_sfdr ~with_attack (fx : Workloads.fixture) =
  Trace.with_rid "ledger" @@ fun () ->
  Engine.Service.configure ~jobs:1 ();
  let chip = fx.Workloads.chip in
  let rx = Rfchain.Receiver.create chip standard in
  let vglna = Rfchain.Vglna.create chip ~fs:(Rfchain.Standards.fs standard) in
  let keys = Array.of_list (fx.golden :: fx.keys) in
  let kinds = mix ~runs ~samples ~with_sfdr ~size:96 in
  let outcomes =
    List.mapi
      (fun index kind ->
        Trace.with_rid (Printf.sprintf "ledger/%d" index) (fun () ->
            record ~rx ~vglna ~chip ~index kind keys.(index mod Array.length keys)))
      kinds
  in
  (* Sdm.create is microseconds: time a batch for its per-call figure. *)
  Trace.span "rfchain.sdm.create.batch" (fun () ->
      for i = 0 to 199 do
        ignore (Rfchain.Sdm.create chip ~fs:(Rfchain.Standards.fs standard) keys.(i mod Array.length keys))
      done);
  let engine_exact, overhead_us =
    engine_overhead ~chip (List.filteri (fun i _ -> i < 40) (Array.to_list keys))
  in
  for _ = 1 to 3 do
    ignore (Trace.span "calibration.osc_tune" (fun () -> Calibration.Osc_tune.run rx))
  done;
  journal_records ~out_dir;
  fault_cells ~chip ~golden:fx.golden;
  let query_ms = if with_attack then Some (probe_attack ~chip ~golden:fx.golden) else None in
  {
    records = List.length outcomes;
    replica_exact = List.for_all fst outcomes;
    engine_exact;
    stage_samples = List.fold_left (fun acc (_, n) -> acc + n) 0 outcomes;
    overhead_us;
    query_ms;
  }
