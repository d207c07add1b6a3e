let n_buckets = 256

(* Bucket 0 collects everything <= 2^-8; bucket i >= 1 covers the
   quarter-octave [2^((i-1)/4 - 8), 2^(i/4 - 8)). *)
let bucket_of v =
  if v <= 0.0 then 0
  else
    let idx = 1 + int_of_float (Float.floor (4.0 *. (Float.log2 v +. 8.0))) in
    if idx < 0 then 0 else if idx >= n_buckets then n_buckets - 1 else idx

let bucket_midpoint i =
  if i = 0 then 0.0 else Float.exp2 (((float_of_int i -. 0.5) /. 4.0) -. 8.0)

type t = {
  name : string;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  lock : Mutex.t;
}

let create name =
  { name; buckets = Array.make n_buckets 0; count = 0; sum = 0.0; min_v = nan; max_v = nan;
    lock = Mutex.create () }

let table : (string, t) Hashtbl.t = Hashtbl.create 32

let make name =
  match Hashtbl.find_opt table name with
  | Some h -> h
  | None ->
    let h = create name in
    Hashtbl.add table name h;
    h

let unregistered name = create name

(* [observe] is the one histogram entry point reachable from worker
   domains (the FFT hot path runs inside the evaluation engine's pool),
   so it takes the per-histogram lock.  Reads (quantile/summarize) run
   on the main domain after workers have quiesced between batches. *)
let observe t v =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  if Float.is_finite v then begin
    t.sum <- t.sum +. v;
    if Float.is_nan t.min_v || v < t.min_v then t.min_v <- v;
    if Float.is_nan t.max_v || v > t.max_v then t.max_v <- v;
    let i = bucket_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end;
  Mutex.unlock t.lock

let quantile t q =
  if t.count = 0 then nan
  else begin
    let bucketed = Array.fold_left ( + ) 0 t.buckets in
    if bucketed = 0 then nan
    else begin
      let target = Float.max 1.0 (Float.round (q *. float_of_int bucketed)) in
      let target = int_of_float (Float.min target (float_of_int bucketed)) in
      let acc = ref 0 and result = ref t.max_v in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             result := bucket_midpoint i;
             raise Exit
           end
         done
       with Exit -> ());
      (* The bucket midpoint can fall outside the observed range at the
         ends; the exact min/max are tighter bounds. *)
      Float.min t.max_v (Float.max t.min_v !result)
    end
  end

type summary = {
  h_name : string;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

let summarize t =
  {
    h_name = t.name;
    h_count = t.count;
    h_sum = t.sum;
    h_min = t.min_v;
    h_max = t.max_v;
    h_p50 = quantile t 0.5;
    h_p90 = quantile t 0.9;
    h_p99 = quantile t 0.99;
  }

let snapshot () =
  Hashtbl.fold (fun _ h acc -> summarize h :: acc) table []
  |> List.sort (fun a b -> String.compare a.h_name b.h_name)

let reset t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- nan;
  t.max_v <- nan

let reset_all () = Hashtbl.iter (fun _ h -> reset h) table
