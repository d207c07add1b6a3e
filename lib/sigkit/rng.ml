(* The splitmix64 counter lives in an 8-byte bytes cell rather than a
   mutable int64 record field: a mutable [int64] field re-boxes on every
   store (3 words per draw step under the non-flambda compiler), which
   made the batched noise draws the dominant per-evaluation allocation.
   The %caml_bytes_get64u/set64u intrinsics read and write the cell
   unboxed, so stepping the generator allocates nothing. *)
type t = {
  state : Bytes.t;
  (* Unboxed Box-Muller spare: a [float option] here costs one option
     cell plus one boxed float per pair of draws in the simulator's
     hottest loop. *)
  mutable cached : float;
  mutable has_cached : bool;
  seed : int64;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: avalanche the counter into a high-quality word. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed64 =
  let state = Bytes.create 8 in
  set64 state 0 seed64;
  { state; cached = 0.0; has_cached = false; seed = seed64 }

let create seed = of_seed64 (mix (Int64.of_int seed))

let hash_label label =
  (* FNV-1a over the label bytes, good enough to decorrelate streams. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  !h

let split t label =
  let r = of_seed64 (mix (Int64.add t.seed (hash_label label))) in
  set64 r.state 0 (mix (Int64.logxor t.seed (hash_label label)));
  r

let bits64 t =
  let s = Int64.add (get64 t.state 0) golden_gamma in
  set64 t.state 0 s;
  mix s

(* 53 high bits mapped to [0,1). *)
let u53 = 1.0 /. 9007199254740992.0

let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. u53

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: lo > hi";
  let span = hi - lo + 1 in
  lo + int_of_float (float t *. float_of_int span)

let uniform t lo hi = lo +. (float t *. (hi -. lo))

let gaussian t =
  if t.has_cached then begin
    t.has_cached <- false;
    t.cached
  end
  else begin
    (* Box-Muller; reject u1 = 0 to keep log finite. *)
    let rec draw_u1 () =
      let u = float t in
      if u > 0.0 then u else draw_u1 ()
    in
    let u1 = draw_u1 () and u2 = float t in
    let radius = sqrt (-2.0 *. log u1) in
    let angle = 2.0 *. Float.pi *. u2 in
    t.cached <- radius *. sin angle;
    t.has_cached <- true;
    radius *. cos angle
  end

(* Batch variant of [gaussian] with the splitmix64 step, the [0,1)
   mapping and the Box-Muller pair inlined into one function body:
   non-flambda unboxing is per-function, so keeping every int64 and
   float local to the loop is what makes the fill allocation-free.
   The emitted sequence — including the spare hand-off at both ends
   and the u1 = 0 rejection — is exactly what [n] calls to [gaussian]
   would produce (guarded by test_sigkit's identity test). *)
let gaussian_fill t buf ~n =
  if n > Array.length buf then invalid_arg "Rng.gaussian_fill: n exceeds buffer";
  let k = ref 0 in
  if n > 0 && t.has_cached then begin
    t.has_cached <- false;
    Array.unsafe_set buf 0 t.cached;
    k := 1
  end;
  let state = t.state in
  while !k < n do
    let s = Int64.add (get64 state 0) golden_gamma in
    set64 state 0 s;
    let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u1 = Int64.to_float (Int64.shift_right_logical z 11) *. u53 in
    (* u1 = 0: the state has advanced one step and the pair is retried,
       exactly as [gaussian]'s rejection loop does. *)
    if u1 > 0.0 then begin
      let s = Int64.add (get64 state 0) golden_gamma in
      set64 state 0 s;
      let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
      let z = Int64.logxor z (Int64.shift_right_logical z 31) in
      let u2 = Int64.to_float (Int64.shift_right_logical z 11) *. u53 in
      let radius = sqrt (-2.0 *. log u1) in
      let angle = 2.0 *. Float.pi *. u2 in
      let i = !k in
      Array.unsafe_set buf i (radius *. cos angle);
      if i + 1 < n then Array.unsafe_set buf (i + 1) (radius *. sin angle)
      else begin
        t.cached <- radius *. sin angle;
        t.has_cached <- true
      end;
      k := i + 2
    end
  done

(* A saved position: the counter and the pending spare are the
   generator's whole stream.  A pending spare is the second half of the
   pair whose last uniform moved the counter to where it is, so the
   counter and the has-spare bit alone tell two positions apart. *)
type state = { counter : int64; spare : float; has_spare : bool }

let save t = { counter = get64 t.state 0; spare = t.cached; has_spare = t.has_cached }

let restore t s =
  set64 t.state 0 s.counter;
  t.cached <- s.spare;
  t.has_cached <- s.has_spare

let is_at t s = Int64.equal (get64 t.state 0) s.counter && Bool.equal t.has_cached s.has_spare

let bool t = Int64.logand (bits64 t) 1L = 1L
