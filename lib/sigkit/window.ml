type kind =
  | Rectangular
  | Hann
  | Hamming
  | Blackman_harris

let cosine_sum terms n =
  let w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let x = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
    let acc = ref 0.0 in
    List.iteri (fun k a -> acc := !acc +. (a *. cos (float_of_int k *. x))) terms;
    w.(i) <- !acc
  done;
  w

let build kind n =
  match kind with
  | Rectangular -> Array.make n 1.0
  | Hann -> cosine_sum [ 0.5; -0.5 ] n
  | Hamming -> cosine_sum [ 0.54; -0.46 ] n
  | Blackman_harris -> cosine_sum [ 0.35875; -0.48829; 0.14128; -0.01168 ] n

(* Coefficient tables are immutable once built and shared across
   domains; the mutex only guards the memo table itself. *)
let lock = Mutex.create ()
let tables : (kind * int, float array) Hashtbl.t = Hashtbl.create 16

let table kind n =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tables (kind, n) with
      | Some w -> w
      | None ->
        let w = build kind n in
        Hashtbl.add tables (kind, n) w;
        w)

let coefficients kind n = Array.copy (table kind n)

let apply kind x =
  let w = table kind (Array.length x) in
  Array.mapi (fun i xi -> xi *. w.(i)) x

let main_lobe_bins = function
  | Rectangular -> 1
  | Hann -> 3
  | Hamming -> 3
  | Blackman_harris -> 5
