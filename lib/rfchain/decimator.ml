type config = {
  ratio_select : int;
  compensator : bool;
}

let default_config = { ratio_select = 2; compensator = true }

let ratio c = 16 lsl c.ratio_select

let cic_order = 3

(* Workspace slots for the CIC intermediates (see DESIGN §15): the I
   channel (and the single channel of [decimate]) in 12, the Q channel
   of [iq] in 11. *)
let cic_i_slot = 12
let cic_q_slot = 11

(* The CIC decimator in two halves: [cic_order] integrators at the
   input rate keeping every r-th value of the last one, then
   [cic_order] combs at the output rate, gain-normalised.  Both are
   written out for order 3 with the stage state in local floats, so
   the loops stay unboxed.  The intermediate lives in a workspace slot
   and is valid only until the next decimation on this domain; the
   comb overwrites every cell before any is read, so stale contents
   are fine. *)
let integrate ~r ~n_out x out =
  let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 in
  for j = 0 to n_out - 1 do
    for k = j * r to ((j + 1) * r) - 1 do
      a0 := !a0 +. Array.unsafe_get x k;
      a1 := !a1 +. !a0;
      a2 := !a2 +. !a1
    done;
    Array.unsafe_set out j !a2
  done

(* Combs fused into one in-place pass: element j only needs each
   stage's previous input, with the gain normalisation folded into the
   final stage.  The difference chain is evaluated in the order of the
   staged version, so the result is bit-identical. *)
let comb ~r y =
  let gain = float_of_int r ** float_of_int cic_order in
  let p0 = ref 0.0 and p1 = ref 0.0 and p2 = ref 0.0 in
  for j = 0 to Array.length y - 1 do
    let v0 = Array.unsafe_get y j in
    let v1 = v0 -. !p0 in
    p0 := v0;
    let v2 = v1 -. !p1 in
    p1 := v1;
    let v3 = v2 -. !p2 in
    p2 := v2;
    Array.unsafe_set y j (v3 /. gain)
  done

(* 31-tap Hann-windowed half-band low-pass for the final 2x stage: the
   sharp stage that keeps shaped quantization noise from aliasing into
   the channel (the CIC alone leaks ~-30 dB images). *)
let halfband_taps =
  let taps = 31 in
  let mid = taps / 2 in
  let h =
    Array.init taps (fun k ->
        let m = k - mid in
        let ideal =
          if m = 0 then 0.5
          else sin (Float.pi *. float_of_int m /. 2.0) /. (Float.pi *. float_of_int m)
        in
        let w = 0.5 -. (0.5 *. cos (2.0 *. Float.pi *. float_of_int k /. float_of_int (taps - 1))) in
        ideal *. w)
  in
  (* DC normalisation folded into the tap table, in place, once. *)
  let dc = Array.fold_left ( +. ) 0.0 h in
  for k = 0 to taps - 1 do
    h.(k) <- h.(k) /. dc
  done;
  h

let fir_decimate2 x =
  let n = Array.length x in
  let taps = Array.length halfband_taps in
  let half_taps = taps / 2 in
  let n_out = n / 2 in
  let out = Array.make n_out 0.0 in
  let h = halfband_taps in
  (* Interior outputs touch only in-range samples: no bounds tests and
     unsafe accesses; the two record edges keep the guarded loop. *)
  let j_lo = min n_out ((half_taps + 1) / 2) in
  let j_hi = max j_lo ((n - half_taps) / 2) in
  let edge j =
    let centre = 2 * j in
    let acc = ref 0.0 in
    for k = 0 to taps - 1 do
      let idx = centre + k - half_taps in
      if idx >= 0 && idx < n then acc := !acc +. (h.(k) *. x.(idx))
    done;
    out.(j) <- !acc
  in
  for j = 0 to j_lo - 1 do
    edge j
  done;
  for j = j_lo to j_hi - 1 do
    let base = (2 * j) - half_taps in
    let acc = ref 0.0 in
    for k = 0 to taps - 1 do
      acc := !acc +. (Array.unsafe_get h k *. Array.unsafe_get x (base + k))
    done;
    Array.unsafe_set out j !acc
  done;
  for j = j_hi to n_out - 1 do
    edge j
  done;
  out

(* Crude fallback 2x stage (compensator bit off): a two-sample average,
   which lets images through — the "wrong digital setting" behaviour. *)
let average_decimate2 x =
  Array.init (Array.length x / 2) (fun j -> 0.5 *. (x.(2 * j) +. x.((2 * j) + 1)))

let decimate2 c mid = if c.compensator then fir_decimate2 mid else average_decimate2 mid

(* The CIC runs at half the overall ratio; the 2x stage does the rest. *)
let cic_ratio c = ratio c / 2

let decimate c x =
  let r = cic_ratio c in
  let n_out = Array.length x / r in
  if n_out = 0 then decimate2 c [||]
  else begin
    let mid = Sigkit.Workspace.arr (Sigkit.Workspace.get ()) ~slot:cic_i_slot ~len:n_out in
    integrate ~r ~n_out x mid;
    comb ~r mid;
    decimate2 c mid
  end

let run_iq c (i_ch, q_ch) = (decimate c i_ch, decimate c q_ch)

(* The digital section's 1-bit boundary, as [Mixer.downconvert_into]
   applies it. *)
let[@inline] bit ~slice x = if slice then (if x >= 0.0 then 1.0 else -1.0) else x

(* [Mixer.downconvert_into] then [run_iq]'s integrators, fed a window
   in pieces and without the two full-rate channels.  The mixer's
   sequences have period 4 and every CIC ratio is a multiple of 4, so
   each inner step takes one period: sample 4m feeds I, 4m+1 feeds Q
   negated, 4m+2 feeds I negated, 4m+3 feeds Q.  A piece that ends
   inside a period leaves its samples in [carry] for the next.  On the
   idle channel the staged chain adds the mixer's +0.0 to the first
   integrator, which leaves it unchanged (an integrator that starts at
   +0.0 never holds -0.0), so that add is skipped; the other two
   stages still step.  Every other float op is the staged one, in the
   same order, so the output is bit-identical. *)
type iq = {
  c : config;
  slice : bool;
  r : int;
  n : int;                (* window length *)
  used : int;             (* the leading samples the integrators read *)
  yi : float array;
  yq : float array;
  acc : float array;      (* integrator states i0 i1 i2 q0 q1 q2 *)
  carry : float array;    (* the samples of a partial period *)
  mutable carried : int;
  mutable periods : int;  (* whole periods integrated *)
  mutable out : int;      (* groups completed *)
  mutable fed : int;
}

let iq ?(slice = false) c ~n =
  if n < 0 then invalid_arg "Decimator.iq: negative window";
  let r = cic_ratio c in
  let n_out = n / r in
  let ws = Sigkit.Workspace.get () in
  let slot_or_empty slot = if n_out = 0 then [||] else Sigkit.Workspace.arr ws ~slot ~len:n_out in
  {
    c;
    slice;
    r;
    n;
    used = n_out * r;
    yi = slot_or_empty cic_i_slot;
    yq = slot_or_empty cic_q_slot;
    acc = Array.make 6 0.0;
    carry = Array.make 4 0.0;
    carried = 0;
    periods = 0;
    out = 0;
    fed = 0;
  }

(* [count] whole periods from [src] at [pos], storing each r-sample
   group's last value as it completes. *)
let integrate s src ~pos ~count =
  let slice = s.slice and yi = s.yi and yq = s.yq and acc = s.acc in
  let i0 = ref acc.(0) and i1 = ref acc.(1) and i2 = ref acc.(2) in
  let q0 = ref acc.(3) and q1 = ref acc.(4) and q2 = ref acc.(5) in
  let periods = s.r / 4 in
  let base = pos - (4 * s.periods) in
  let m0 = ref s.periods in
  let stop = s.periods + count in
  while !m0 < stop do
    let group_end = (s.out + 1) * periods in
    let m1 = if stop < group_end then stop else group_end in
    for m = !m0 to m1 - 1 do
      let p = base + (4 * m) in
      let x0 = bit ~slice (Array.unsafe_get src p) in
      let x1 = bit ~slice (Array.unsafe_get src (p + 1)) in
      let x2 = bit ~slice (Array.unsafe_get src (p + 2)) in
      let x3 = bit ~slice (Array.unsafe_get src (p + 3)) in
      i0 := !i0 +. x0;
      i1 := !i1 +. !i0;
      i2 := !i2 +. !i1;
      q1 := !q1 +. !q0;
      q2 := !q2 +. !q1;
      i1 := !i1 +. !i0;
      i2 := !i2 +. !i1;
      q0 := !q0 +. (-.x1);
      q1 := !q1 +. !q0;
      q2 := !q2 +. !q1;
      i0 := !i0 +. (-.x2);
      i1 := !i1 +. !i0;
      i2 := !i2 +. !i1;
      q1 := !q1 +. !q0;
      q2 := !q2 +. !q1;
      i1 := !i1 +. !i0;
      i2 := !i2 +. !i1;
      q0 := !q0 +. x3;
      q1 := !q1 +. !q0;
      q2 := !q2 +. !q1
    done;
    if m1 = group_end then begin
      Array.unsafe_set yi s.out !i2;
      Array.unsafe_set yq s.out !q2;
      s.out <- s.out + 1
    end;
    m0 := m1
  done;
  s.periods <- stop;
  acc.(0) <- !i0;
  acc.(1) <- !i1;
  acc.(2) <- !i2;
  acc.(3) <- !q0;
  acc.(4) <- !q1;
  acc.(5) <- !q2

let feed s src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src || len > s.n - s.fed then
    invalid_arg "Decimator.feed: bad window";
  let left = ref (max 0 (min len (s.used - s.fed))) and pos = ref pos in
  s.fed <- s.fed + len;
  if !left > 0 && s.carried > 0 then begin
    let k = min !left (4 - s.carried) in
    Array.blit src !pos s.carry s.carried k;
    s.carried <- s.carried + k;
    pos := !pos + k;
    left := !left - k;
    if s.carried = 4 then begin
      integrate s s.carry ~pos:0 ~count:1;
      s.carried <- 0
    end
  end;
  let whole = !left / 4 in
  if whole > 0 then integrate s src ~pos:!pos ~count:whole;
  let rest = !left - (4 * whole) in
  if rest > 0 then begin
    Array.blit src (!pos + (4 * whole)) s.carry 0 rest;
    s.carried <- rest
  end

let finish s =
  if s.fed <> s.n then invalid_arg "Decimator.finish: window not fully fed";
  comb ~r:s.r s.yi;
  comb ~r:s.r s.yq;
  (decimate2 s.c s.yi, decimate2 s.c s.yq)

let downconvert_iq ?slice c src ~pos ~n =
  if pos < 0 || n < 0 || pos + n > Array.length src then
    invalid_arg "Decimator.downconvert_iq: bad window";
  let s = iq ?slice c ~n in
  feed s src ~pos ~len:n;
  finish s
