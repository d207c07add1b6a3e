type tag = ..

(* Each scratch array carries at most one description of its contents:
   its owner's tag, or [None] while they are unknown.  [arr] clears it
   whenever it hands the array out for writing.  [asked] is the last
   tag [admitted] was asked for on the entry, which [arr] clears too. *)
type entry = {
  data : float array;
  mutable tag : tag option;
  mutable asked : tag option;
}

(* A noise draw: where the generator started and where the fill left
   it.  The length is the entry's own key. *)
type tag += Noise of { start : Rng.state; finish : Rng.state }

type t = { slots : (int, entry) Hashtbl.t }

(* A plain atomic, not a telemetry counter: memo misses happen once per
   process, so they would make otherwise identical workloads leave
   different counter snapshots (breaking telemetry determinism). *)
let allocs = Atomic.make 0

let key = Domain.DLS.new_key (fun () -> { slots = Hashtbl.create 16 })

let get () = Domain.DLS.get key

let entry t ~slot ~len =
  if slot < 0 || slot > 15 then invalid_arg "Workspace: slot must be in 0..15";
  if len < 0 then invalid_arg "Workspace: negative length";
  let k = (len lsl 4) lor slot in
  match Hashtbl.find_opt t.slots k with
  | Some e -> e
  | None ->
    Atomic.incr allocs;
    let e = { data = Array.make len 0.0; tag = None; asked = None } in
    Hashtbl.add t.slots k e;
    e

let arr t ~slot ~len =
  let e = entry t ~slot ~len in
  e.tag <- None;
  e.asked <- None;
  e.data

let gaussian t ~slot ~len rng =
  let e = entry t ~slot ~len in
  match e.tag with
  | Some (Noise { start; finish }) when Rng.is_at rng start ->
    Rng.restore rng finish;
    e.data
  | _ ->
    e.tag <- None;
    let start = Rng.save rng in
    Rng.gaussian_fill rng e.data ~n:len;
    e.tag <- Some (Noise { start; finish = Rng.save rng });
    e.data

(* Untagged while [fill] runs: a fill that raises leaves a slot that
   no later call can mistake for a finished one. *)
let refill e tag fill =
  e.tag <- None;
  fill e.data;
  e.tag <- Some tag;
  e.data

let tagged t ~slot ~len ~same tag fill =
  let e = entry t ~slot ~len in
  match e.tag with
  | Some held when same held tag -> e.data
  | _ -> refill e tag fill

let admitted t ~slot ~len ~same tag fill =
  let e = entry t ~slot ~len in
  let again = match e.asked with Some prev -> same prev tag | None -> false in
  e.asked <- Some tag;
  match e.tag with
  | Some held when same held tag -> Some e.data
  | _ -> if again then Some (refill e tag fill) else None

let allocations () = Atomic.get allocs
