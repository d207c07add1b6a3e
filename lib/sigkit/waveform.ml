type stimulus =
  | Tone of {
      amplitude : float;
      freq : float;
      fs : float;
      phase : float;
    }
  | Two_tone of {
      amplitude : float;
      f1 : float;
      f2 : float;
      fs : float;
    }

let dbm_tone ~p_dbm ~freq ~fs ?(phase = 0.0) () =
  Tone { amplitude = Decibel.amplitude_of_dbm p_dbm; freq; fs; phase }

let dbm_two_tone ~p_dbm ~f1 ~f2 ~fs =
  Two_tone { amplitude = Decibel.amplitude_of_dbm p_dbm; f1; f2; fs }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_stimulus a b =
  match a, b with
  | Tone a, Tone b ->
    same_bits a.amplitude b.amplitude && same_bits a.freq b.freq && same_bits a.fs b.fs
    && same_bits a.phase b.phase
  | Two_tone a, Two_tone b ->
    same_bits a.amplitude b.amplitude && same_bits a.f1 b.f1 && same_bits a.f2 b.f2
    && same_bits a.fs b.fs
  | Tone _, Two_tone _ | Two_tone _, Tone _ -> false

(* The one sinusoid expression: sample [j] of a tone at angular step
   [w] per sample. *)
let[@inline] sample amplitude w phase j = amplitude *. sin ((w *. float_of_int j) +. phase)

let step freq fs = 2.0 *. Float.pi *. freq /. fs

(* The second tone of a two-tone stimulus starts 60 degrees in. *)
let second_phase = Float.pi /. 3.0

let render_into stimulus ~n ~rot dst =
  let len = Array.length dst in
  if len > 0 && (n < 1 || rot < 0 || rot >= n) then
    invalid_arg "Waveform.render_into: rotation outside the record";
  (* Explicit loops, sample index wrapping at [n]: the stored
     expression is the one the unrotated record would hold, and direct
     float stores keep the loop unboxed. *)
  match stimulus with
  | Tone { amplitude; freq; fs; phase } ->
    let w = step freq fs in
    let j = ref rot in
    for i = 0 to len - 1 do
      Array.unsafe_set dst i (sample amplitude w phase !j);
      j := if !j = n - 1 then 0 else !j + 1
    done
  | Two_tone { amplitude; f1; f2; fs } ->
    let w1 = step f1 fs and w2 = step f2 fs in
    let j = ref rot in
    for i = 0 to len - 1 do
      Array.unsafe_set dst i
        (sample amplitude w1 0.0 !j +. sample amplitude w2 second_phase !j);
      j := if !j = n - 1 then 0 else !j + 1
    done

let render stimulus n =
  let out = Array.make n 0.0 in
  render_into stimulus ~n ~rot:0 out;
  out

let tone ~amplitude ~freq ~fs ?(phase = 0.0) n = render (Tone { amplitude; freq; fs; phase }) n

let tone_dbm ~p_dbm ~freq ~fs ?phase n = render (dbm_tone ~p_dbm ~freq ~fs ?phase ()) n

let two_tone_dbm ~p_dbm ~f1 ~f2 ~fs n = render (dbm_two_tone ~p_dbm ~f1 ~f2 ~fs) n

let add a b =
  if Array.length a <> Array.length b then invalid_arg "Waveform.add: length mismatch";
  Array.mapi (fun i x -> x +. b.(i)) a

let scale k = Array.map (fun x -> k *. x)

let gaussian_noise rng ~sigma n = Array.init n (fun _ -> sigma *. Rng.gaussian rng)

let rms x =
  let acc = ref 0.0 in
  Array.iter (fun v -> acc := !acc +. (v *. v)) x;
  sqrt (!acc /. float_of_int (max 1 (Array.length x)))

let peak x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let mean x =
  if Array.length x = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)

let coherent_frequency ~freq ~fs ~n =
  let k = Float.round (freq *. float_of_int n /. fs) in
  let k = if k < 1.0 then 1.0 else k in
  (* Prefer an odd bin index: coherent-sampling practice. *)
  let ki = int_of_float k in
  let ki = if ki mod 2 = 0 then ki + 1 else ki in
  float_of_int ki *. fs /. float_of_int n
