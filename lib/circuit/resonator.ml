type t = {
  a1 : float;            (* 2 r cos(theta) *)
  a2 : float;            (* -r^2 *)
  r : float;
  limit : float;
  mutable y1 : float;
  mutable y2 : float;
  mutable x1 : float;
  mutable x2 : float;
}

let create ~theta ~r ?(limit = 10.0) () =
  {
    a1 = 2.0 *. r *. cos theta;
    a2 = -.(r *. r);
    r;
    limit;
    y1 = 0.0;
    y2 = 0.0;
    x1 = 0.0;
    x2 = 0.0;
  }

let theta_of_lc ~l ~c ~fs =
  if l <= 0.0 || c <= 0.0 || fs <= 0.0 then invalid_arg "Resonator.theta_of_lc";
  let f_res = 1.0 /. (2.0 *. Float.pi *. sqrt (l *. c)) in
  2.0 *. Float.pi *. f_res /. fs

let clip limit v = if v > limit then limit else if v < -.limit then -.limit else v

let output t =
  let y = (t.a1 *. t.y1) +. (t.a2 *. t.y2) +. t.x2 in
  let y = clip t.limit y in
  t.y2 <- t.y1;
  t.y1 <- y;
  t.x2 <- t.x1;
  y

let feed t x = t.x1 <- x

let step t x =
  let y = output t in
  feed t x;
  y

let reset t =
  t.y1 <- 0.0;
  t.y2 <- 0.0;
  t.x1 <- 0.0;
  t.x2 <- 0.0

let run t input = Array.map (fun x -> step t x) input

(* Frequency from the span between the first and last interpolated
   up-crossing: sub-sample accuracy, which the capacitor-array binary
   search needs (fine-cap steps move the resonance by well under an FFT
   bin). *)
let upcrossing_frequency samples ~fs =
  let n = Array.length samples in
  let first = ref None and last = ref None and count = ref 0 in
  for i = 1 to n - 1 do
    if samples.(i - 1) < 0.0 && samples.(i) >= 0.0 then begin
      let frac = -.samples.(i - 1) /. (samples.(i) -. samples.(i - 1)) in
      let time = float_of_int (i - 1) +. frac in
      if !first = None then first := Some time;
      last := Some time;
      incr count
    end
  done;
  match (!first, !last) with
  | Some t0, Some t1 when !count >= 3 && t1 > t0 ->
    Some (float_of_int (!count - 1) /. (t1 -. t0) *. fs)
  | Some _, Some _ | Some _, None | None, Some _ | None, None -> None

(* Oscillation mode runs the recursion unclamped (the clamp is a model
   of the rails, but clamping the *state* warps the effective resonance
   the bench would measure).  The state is renormalised whenever it
   grows large — a pure scaling, which leaves zero crossings exactly at
   the sinusoid's zeros, so the frequency estimate is unbiased even for
   a strongly over-critical tank. *)
let oscillation_frequency t ~fs ~n =
  let y1 = ref 1e-3 and y2 = ref 0.0 in
  let samples = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let y = (t.a1 *. !y1) +. (t.a2 *. !y2) in
    y2 := !y1;
    y1 := y;
    samples.(i) <- y;
    if Float.abs y > 1e12 then begin
      y1 := !y1 *. 1e-12;
      y2 := !y2 *. 1e-12;
      (* Rescale the recorded tail consistently so crossings line up. *)
      for j = max 0 (i - 4) to i do
        samples.(j) <- samples.(j) *. 1e-12
      done
    end
  done;
  let tail = Array.sub samples (n - (n / 4)) (n / 4) in
  let tail_rms = Sigkit.Waveform.rms tail in
  if t.r < 1.0 || tail_rms < 1e-9 then None else upcrossing_frequency tail ~fs
