let is_pow2 n = n > 0 && n land (n - 1) = 0

type t = {
  n : int;
  bitrev : int array;
  (* Forward twiddles of every stage, flattened: the stage with
     half-length [h] owns slots [h-1 .. 2h-2], its j-th factor being
     e^{-j pi j / h}.  Total n-1 slots. *)
  tw_re : float array;
  tw_im : float array;
}

type real = {
  m : int;                     (* half the real record size n *)
  cplan : t;
  ur : float array;            (* cos(2 pi k / n), k = 0 .. m *)
  ui : float array;            (* sin(2 pi k / n) *)
}

(* A plain atomic rather than a telemetry counter: plan builds are
   once-per-process memo misses, which would break the determinism of
   per-workload counter snapshots. *)
let builds = Atomic.make 0

let build_count () = Atomic.get builds

let size p = p.n

let log2_of n =
  let rec go b p = if p = n then b else go (b + 1) (p * 2) in
  go 0 1

let build n =
  Atomic.incr builds;
  let b = log2_of n in
  let bitrev =
    Array.init n (fun i ->
        let r = ref 0 and x = ref i in
        for _ = 1 to b do
          r := (!r lsl 1) lor (!x land 1);
          x := !x lsr 1
        done;
        !r)
  in
  let tw_re = Array.make (max 0 (n - 1)) 1.0 in
  let tw_im = Array.make (max 0 (n - 1)) 0.0 in
  let half = ref 1 in
  while !half < n do
    let h = !half in
    let base = h - 1 in
    for j = 0 to h - 1 do
      let angle = -.Float.pi *. float_of_int j /. float_of_int h in
      tw_re.(base + j) <- cos angle;
      tw_im.(base + j) <- sin angle
    done;
    half := 2 * h
  done;
  { n; bitrev; tw_re; tw_im }

let lock = Mutex.create ()
let plans : (int, t) Hashtbl.t = Hashtbl.create 16
let real_plans : (int, real) Hashtbl.t = Hashtbl.create 16

let get n =
  if not (is_pow2 n) then invalid_arg "Plan.get: size must be a power of two";
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt plans n with
      | Some p -> p
      | None ->
        let p = build n in
        Hashtbl.add plans n p;
        p)

let build_real n =
  let m = n / 2 in
  let cplan = build m in
  let ur = Array.make (m + 1) 0.0 and ui = Array.make (m + 1) 0.0 in
  for k = 0 to m do
    let angle = 2.0 *. Float.pi *. float_of_int k /. float_of_int n in
    ur.(k) <- cos angle;
    ui.(k) <- sin angle
  done;
  { m; cplan; ur; ui }

let real_get n =
  if not (is_pow2 n) || n < 2 then
    invalid_arg "Plan.real_get: size must be a power of two >= 2";
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt real_plans n with
      | Some p -> p
      | None ->
        let p = build_real n in
        Hashtbl.add real_plans n p;
        p)

(* The complex butterfly passes, twiddles from the tables.  Bounds are
   established once by the length check; inner accesses are unsafe. *)
let exec_sized p re im =
  let n = p.n in
  let brev = p.bitrev in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get brev i in
    if i < j then begin
      let tr = Array.unsafe_get re i in
      Array.unsafe_set re i (Array.unsafe_get re j);
      Array.unsafe_set re j tr;
      let ti = Array.unsafe_get im i in
      Array.unsafe_set im i (Array.unsafe_get im j);
      Array.unsafe_set im j ti
    end
  done;
  let tw_re = p.tw_re and tw_im = p.tw_im in
  let half = ref 1 in
  while !half < n do
    let h = !half in
    let base = h - 1 in
    let len = 2 * h in
    let i = ref 0 in
    while !i < n do
      let i0 = !i in
      for j = 0 to h - 1 do
        let k = i0 + j in
        let wr = Array.unsafe_get tw_re (base + j)
        and wi = Array.unsafe_get tw_im (base + j) in
        let xr = Array.unsafe_get re (k + h) and xi = Array.unsafe_get im (k + h) in
        let tr = (wr *. xr) -. (wi *. xi) in
        let ti = (wr *. xi) +. (wi *. xr) in
        let ur = Array.unsafe_get re k and ui = Array.unsafe_get im k in
        Array.unsafe_set re (k + h) (ur -. tr);
        Array.unsafe_set im (k + h) (ui -. ti);
        Array.unsafe_set re k (ur +. tr);
        Array.unsafe_set im k (ui +. ti)
      done;
      i := i0 + len
    done;
    half := len
  done

let check_len p re im =
  if Array.length re <> p.n || Array.length im <> p.n then
    invalid_arg "Plan.exec: length mismatch with plan size"

let exec p re im =
  check_len p re im;
  exec_sized p re im

(* Untangle the packed transform: with Z the m-point transform of
   z_k = x_{2k} + j x_{2k+1}, the even/odd-sample spectra are
   E_k = (Z_k + conj Z_{m-k})/2 and O_k = (Z_k - conj Z_{m-k})/(2j),
   and X_k = E_k + e^{-j2 pi k/n} O_k for k = 0 .. m. *)
let real_forward_packed p ~packed_re ~packed_im ~re ~im =
  let m = p.m in
  if Array.length packed_re <> m || Array.length packed_im <> m then
    invalid_arg "Plan.real_forward_packed: scratch length must be n/2";
  if Array.length re < m + 1 || Array.length im < m + 1 then
    invalid_arg "Plan.real_forward_packed: output length must be >= n/2 + 1";
  exec_sized p.cplan packed_re packed_im;
  let mask = m - 1 in
  let ur = p.ur and ui = p.ui in
  for k = 0 to m do
    let ka = k land mask in
    let kb = (m - k) land mask in
    let ar = Array.unsafe_get packed_re ka and ai = Array.unsafe_get packed_im ka in
    let br = Array.unsafe_get packed_re kb and bi = Array.unsafe_get packed_im kb in
    let er = 0.5 *. (ar +. br) in
    let ei = 0.5 *. (ai -. bi) in
    let odr = 0.5 *. (ai +. bi) in
    let odi = -0.5 *. (ar -. br) in
    let c = Array.unsafe_get ur k and s = Array.unsafe_get ui k in
    Array.unsafe_set re k (er +. (c *. odr) +. (s *. odi));
    Array.unsafe_set im k (ei +. (c *. odi) -. (s *. odr))
  done
