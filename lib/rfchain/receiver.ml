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
   map and aliasing argument).  Every slot is dead again by the time
   [run] returns: the only arrays that escape are the freshly allocated
   result fields. *)
let extended_slot = 6
let mod_slot = 7
let mix_i_slot = 10
let mix_q_slot = 11

let run t ~analog ?(digital = Decimator.default_config) ?(settle = 1024) ?(slice = true) ~input () =
  Telemetry.Counter.incr runs;
  Telemetry.Counter.add samples (Array.length input);
  Telemetry.Span.with_ ~name:"receiver.run" (fun () ->
  let analog = applied_config t analog in
  let n = Array.length input in
  let total = settle + n in
  let ws = Sigkit.Workspace.get () in
  (* Prepend the settle prefix by repeating the record head: for
     periodic test tones this keeps the steady-state phase coherent.
     Cell i holds input.((i + n - settle mod n) mod n), copied as runs
     of the rotation; every cell of the scratch buffer is overwritten. *)
  let extended = Sigkit.Workspace.arr ws ~slot:extended_slot ~len:total in
  let pos = ref 0 in
  while !pos < total do
    let src = if !pos = 0 then (n - (settle mod n)) mod n else 0 in
    let len = min (n - src) (total - !pos) in
    Array.blit input src extended !pos len;
    pos := !pos + len
  done;
  (* The fault hook may return its argument or a fresh array; it must
     not retain the scratch buffer it was handed (inject.ml's hooks
     map into fresh arrays). *)
  let extended =
    match t.rf_fault with
    | None -> extended
    | Some f -> f extended
  in
  Vglna.run_inplace t.vglna ~code:analog.Config.vglna_gain extended;
  let sdm = Sdm.create t.chip ~fs:(fs t) analog in
  let mod_full = Sigkit.Workspace.arr ws ~slot:mod_slot ~len:total in
  Sdm.run_into sdm extended mod_full;
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
  })

(* Offset the coherent test tone by a quarter of the band: far enough
   from the carrier bin for clean binning, while the aliased third
   harmonic (at -3x the offset) stays outside the band of interest —
   the paper's measurement at exactly F0 hides that alias under the
   carrier. *)
let test_tone_frequency t ~n =
  let f0 = t.standard.Standards.f0_hz in
  let offset = Standards.band_hz t.standard /. 4.0 in
  Sigkit.Waveform.coherent_frequency ~freq:(f0 +. offset) ~fs:(fs t) ~n
