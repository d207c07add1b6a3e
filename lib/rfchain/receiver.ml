type t = {
  chip : Circuit.Process.chip;
  standard : Standards.t;
  vglna : Vglna.t;
  fabric : (Config.t -> Config.t) option;
  rf_fault : (float array -> float array) option;
}

type result = {
  mod_output : float array;
  baseband_i : float array;
  baseband_q : float array;
  fs : float;
  fs_baseband : float;
}

let create ?fabric ?rf_fault chip standard =
  { chip; standard; vglna = Vglna.create chip ~fs:(Standards.fs standard); fabric; rf_fault }

let chip t = t.chip
let standard t = t.standard
let fs t = Standards.fs t.standard
let fs_baseband t = fs t /. float_of_int (Decimator.ratio Decimator.default_config)
let fabric t = t.fabric
let rf_fault t = t.rf_fault

(* The programming fabric sits between the key register and the analog
   knobs: a faulty fabric (stuck bits, transient upsets) rewrites the
   word actually applied.  A healthy receiver has no hook and pays
   nothing. *)
let applied_config t config =
  match t.fabric with
  | None -> config
  | Some f -> f config

let slice_to_bit x = Array.map (fun v -> if v >= 0.0 then 1.0 else -1.0) x

let sdm_of_config t config = Sdm.create t.chip ~fs:(fs t) (applied_config t config)

let runs = Telemetry.Counter.make "receiver.runs"
let samples = Telemetry.Counter.make "receiver.samples"

(* Workspace slots of the evaluation chain (see DESIGN §15 for the full
   map and aliasing argument).  Every slot but the tagged ones (front
   halves, test tone, ΣΔ noise and drive) is dead again by the time a
   run returns: the only arrays that escape are the freshly allocated
   result fields. *)
let extended_slot = 6
let two_tone_slot = 14

(* The single-tone input chain's one long slot, shared with the ΣΔ
   drive ([Sdm]'s slot 13): it holds the settle-extended test tone
   until the SDM admits a drive there. *)
let tone_slot = 13

(* Every entry point: refuse a degenerate record before any work, then
   count and span one run, with the analog word as the knobs see it. *)
let instrumented t ~who ~analog ~settle ~n f =
  if n < 1 then invalid_arg (who ^ ": record length must be positive");
  if settle < 0 then invalid_arg (who ^ ": settle must be non-negative");
  Telemetry.Counter.incr runs;
  Telemetry.Counter.add samples n;
  Telemetry.Span.with_ ~name:"receiver.run" (fun () -> f (applied_config t analog))

(* The settle prefix repeats the record's tail, so the extended record
   starts at this sample: for periodic test tones this keeps the
   steady-state phase coherent. *)
let rotation ~n ~settle = (n - (settle mod n)) mod n

(* The modulator over the settle-extended VGLNA output [amplified],
   block by block, handing [take] the part of each block that lies in
   the record's window [settle, settle + n): [take block off k len]
   gets block cells [off, off + len), window samples [k, k + len).
   With [signs], only each sample's sign as the digital section's
   1-bit boundary reads it (see [Sdm.stream]); [memo] describes
   [amplified] to the SDM. *)
let modulate ?memo ~signs t ~analog ~settle ~n amplified take =
  let sdm = Sdm.create t.chip ~fs:(fs t) analog in
  Sdm.stream ?memo ~signs sdm amplified (fun block pos len ->
      let lo = max pos settle and hi = min (pos + len) (settle + n) in
      if lo < hi then take block (lo - pos) (lo - settle) (hi - lo))

(* A fresh record that [take] fills with the window. *)
let record_sink n =
  let record = Array.create_float n in
  (record, fun block off k len -> Array.blit block off record k len)

(* Slice + mixer + decimator over the window, with the default digital
   setting. *)
let baseband_sink ~slice n =
  let iq = Decimator.iq ~slice Decimator.default_config ~n in
  (iq, fun block off _ len -> Decimator.feed iq block ~pos:off ~len)

let run t ~analog ?(settle = 1024) ?(slice = true) ~input () =
  let n = Array.length input in
  instrumented t ~who:"Receiver.run" ~analog ~settle ~n @@ fun analog ->
  let total = settle + n in
  (* Cell i holds input.((i + rotation) mod n), copied as runs of the
     rotation; every cell of the scratch buffer is overwritten. *)
  let extended = Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:extended_slot ~len:total in
  let pos = ref 0 in
  while !pos < total do
    let src = if !pos = 0 then rotation ~n ~settle else 0 in
    let len = min (n - src) (total - !pos) in
    Array.blit input src extended !pos len;
    pos := !pos + len
  done;
  (* The fault hook may return its argument or a fresh array; it must
     not retain the scratch buffer it was handed (inject.ml's hooks map
     into fresh arrays). *)
  let extended =
    match t.rf_fault with
    | None -> extended
    | Some f -> f extended
  in
  Vglna.run_inplace t.vglna ~code:analog.Config.vglna_gain extended;
  let mod_output, copy = record_sink n in
  let iq, decimate = baseband_sink ~slice n in
  modulate ~signs:false t ~analog ~settle ~n extended (fun block off k len ->
      copy block off k len;
      decimate block off k len);
  let baseband_i, baseband_q = Decimator.finish iq in
  { mod_output; baseband_i; baseband_q; fs = fs t; fs_baseband = fs_baseband t }

(* What a tagged front-end slot holds: the VGLNA output for one die
   (its behavioural identity and the rate its noise is specified at),
   one stimulus record of [n] samples extended by [settle], and one
   applied gain code.  Without an [rf_fault] hook that output is a pure
   function of exactly these fields: the VGLNA's noise stream is a
   fresh split of the die's root on every run, and its gain, noise
   figure and IIP3 are pure process draws. *)
type front = {
  die : string;
  rate : float;
  stimulus : Sigkit.Waveform.stimulus;
  n : int;
  settle : int;
  code : int;
}

type Sigkit.Workspace.tag += Front of front

let same_front held wanted =
  match held, wanted with
  | Front a, Front b ->
    a.code = b.code && a.n = b.n && a.settle = b.settle
    && Int64.equal (Int64.bits_of_float a.rate) (Int64.bits_of_float b.rate)
    && Sigkit.Waveform.equal_stimulus a.stimulus b.stimulus
    && String.equal a.die b.die
  | _ -> false

(* What the tone slot holds: one stimulus record of [n] samples
   extended by [settle], the same on every die and at every code. *)
type Sigkit.Workspace.tag += Stimulus of { stimulus : Sigkit.Waveform.stimulus; n : int; settle : int }

let same_stimulus held wanted =
  match held, wanted with
  | Stimulus a, Stimulus b ->
    a.n = b.n && a.settle = b.settle && Sigkit.Waveform.equal_stimulus a.stimulus b.stimulus
  | _ -> false

(* The settle-extended stimulus into [extended]: a single tone is
   copied from the tone slot, rendered there first on a miss. *)
let render ws ~stimulus ~n ~settle extended =
  let rot = rotation ~n ~settle in
  match stimulus with
  | Sigkit.Waveform.Tone _ ->
    let total = settle + n in
    let tone =
      Sigkit.Workspace.tagged ws ~slot:tone_slot ~len:total ~same:same_stimulus
        (Stimulus { stimulus; n; settle })
        (Sigkit.Waveform.render_into stimulus ~n ~rot)
    in
    Array.blit tone 0 extended 0 total
  | Sigkit.Waveform.Two_tone _ -> Sigkit.Waveform.render_into stimulus ~n ~rot extended

(* The front half of a capture (stimulus, settle rotation, VGLNA) in
   its tagged slot, and the memo that describes it to the SDM. *)
let front_half t ~analog ~settle ~stimulus ~n =
  let total = settle + n in
  let code = analog.Config.vglna_gain in
  let ws = Sigkit.Workspace.get () in
  (* Single tones and two-tones keep separate slots: calibration
     alternates the two at one record length on one die. *)
  let slot =
    match stimulus with
    | Sigkit.Waveform.Tone _ -> extended_slot
    | Sigkit.Waveform.Two_tone _ -> two_tone_slot
  in
  match t.rf_fault with
  | Some f ->
    (* An opaque hook sits between stimulus and VGLNA: no front-half
       memo and no drive, only the tone. *)
    let extended = Sigkit.Workspace.arr ws ~slot ~len:total in
    render ws ~stimulus ~n ~settle extended;
    let extended = f extended in
    Vglna.run_inplace t.vglna ~code extended;
    (extended, None)
  | None ->
    let front =
      Front { die = Circuit.Process.identity t.chip; rate = fs t; stimulus; n; settle; code }
    in
    let amplified =
      Sigkit.Workspace.tagged ws ~slot ~len:total ~same:same_front front (fun extended ->
          render ws ~stimulus ~n ~settle extended;
          Vglna.run_inplace t.vglna ~code extended)
    in
    (* The SDM keeps one drive, so only single tones get it: a
       two-tone would evict it each time calibration alternates the
       two at one length. *)
    match stimulus with
    | Sigkit.Waveform.Tone _ -> (amplified, Some (front, same_front))
    | Sigkit.Waveform.Two_tone _ -> (amplified, None)

let capture_modulator t ~analog ?(settle = 1024) ~stimulus ~n () =
  instrumented t ~who:"Receiver.capture_modulator" ~analog ~settle ~n @@ fun analog ->
  let amplified, memo = front_half t ~analog ~settle ~stimulus ~n in
  let record, copy = record_sink n in
  modulate ?memo ~signs:false t ~analog ~settle ~n amplified copy;
  record

(* The decimator reads only the modulator output's sign, so the
   calibration buffer's pass is skipped, and no modulator record is
   copied out. *)
let capture_baseband t ~analog ?(settle = 1024) ~stimulus ~n () =
  instrumented t ~who:"Receiver.capture_baseband" ~analog ~settle ~n @@ fun analog ->
  let amplified, memo = front_half t ~analog ~settle ~stimulus ~n in
  let iq, decimate = baseband_sink ~slice:true n in
  modulate ?memo ~signs:true t ~analog ~settle ~n amplified decimate;
  Decimator.finish iq

(* Offset the coherent test tone by a quarter of the band: far enough
   from the carrier bin for clean binning, while the aliased third
   harmonic (at -3x the offset) stays outside the band of interest —
   the paper's measurement at exactly F0 hides that alias under the
   carrier. *)
let test_tone_frequency t ~n =
  let f0 = t.standard.Standards.f0_hz in
  let offset = Standards.band_hz t.standard /. 4.0 in
  Sigkit.Waveform.coherent_frequency ~freq:(f0 +. offset) ~fs:(fs t) ~n
