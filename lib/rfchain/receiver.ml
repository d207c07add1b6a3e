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
let has_hooks t = t.fabric <> None || t.rf_fault <> None
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
   map and aliasing argument).  Every slot but the two tagged front-end
   slots is dead again by the time a run returns: the only arrays that
   escape are the freshly allocated result fields. *)
let extended_slot = 6
let two_tone_slot = 14
let mod_slot = 7
let mix_i_slot = 10
let mix_q_slot = 11

(* Both entry points: refuse a degenerate record before any work, then
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

(* The half of the chain after the VGLNA, shared by both entry points:
   SDM -> slice + mixer -> decimator on the settle-extended VGLNA
   output [amplified]. *)
let back_half t ~analog ~digital ~settle ~slice ~n amplified =
  let total = settle + n in
  let ws = Sigkit.Workspace.get () in
  let sdm = Sdm.create t.chip ~fs:(fs t) analog in
  let mod_full = Sigkit.Workspace.arr ws ~slot:mod_slot ~len:total in
  Sdm.run_into sdm amplified mod_full;
  let mod_output = Array.sub mod_full settle n in
  let i_ch = Sigkit.Workspace.arr ws ~slot:mix_i_slot ~len:n in
  let q_ch = Sigkit.Workspace.arr ws ~slot:mix_q_slot ~len:n in
  Mixer.downconvert_into ~slice mod_full ~pos:settle ~n ~i_out:i_ch ~q_out:q_ch;
  let baseband_i, baseband_q = Decimator.run_iq digital (i_ch, q_ch) in
  {
    mod_output;
    baseband_i;
    baseband_q;
    fs = fs t;
    fs_baseband = fs t /. float_of_int (Decimator.ratio digital);
  }

let run t ~analog ?(digital = Decimator.default_config) ?(settle = 1024) ?(slice = true) ~input () =
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
  back_half t ~analog ~digital ~settle ~slice ~n extended

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

let run_stimulus t ~analog ?(settle = 1024) ~stimulus ~n () =
  instrumented t ~who:"Receiver.run_stimulus" ~analog ~settle ~n @@ fun analog ->
  let total = settle + n in
  let rot = rotation ~n ~settle in
  let code = analog.Config.vglna_gain in
  let ws = Sigkit.Workspace.get () in
  (* Single tones and two-tones keep separate slots: calibration
     alternates the two at one record length on one die. *)
  let slot =
    match stimulus with
    | Sigkit.Waveform.Tone _ -> extended_slot
    | Sigkit.Waveform.Two_tone _ -> two_tone_slot
  in
  let amplified =
    match t.rf_fault with
    | Some f ->
      (* An opaque hook sits between stimulus and VGLNA: no memo. *)
      let extended = Sigkit.Workspace.arr ws ~slot ~len:total in
      Sigkit.Waveform.render_into stimulus ~n ~rot extended;
      let extended = f extended in
      Vglna.run_inplace t.vglna ~code extended;
      extended
    | None ->
      let front =
        Front { die = Circuit.Process.identity t.chip; rate = fs t; stimulus; n; settle; code }
      in
      Sigkit.Workspace.tagged ws ~slot ~len:total ~same:same_front front (fun extended ->
          Sigkit.Waveform.render_into stimulus ~n ~rot extended;
          Vglna.run_inplace t.vglna ~code extended)
  in
  back_half t ~analog ~digital:Decimator.default_config ~settle ~slice:true ~n amplified

(* Offset the coherent test tone by a quarter of the band: far enough
   from the carrier bin for clean binning, while the aliased third
   harmonic (at -3x the offset) stays outside the band of interest —
   the paper's measurement at exactly F0 hides that alias under the
   carrier. *)
let test_tone_frequency t ~n =
  let f0 = t.standard.Standards.f0_hz in
  let offset = Standards.band_hz t.standard /. 4.0 in
  Sigkit.Waveform.coherent_frequency ~freq:(f0 +. offset) ~fs:(fs t) ~n
