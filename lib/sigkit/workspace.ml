type tag = ..

(* Each scratch array carries at most one description of its contents:
   the memo of the last noise stream drawn into it, or an owner's tag.
   Every writer clears the other's, and [arr] clears both whenever it
   hands the array out for writing. *)
type entry = {
  data : float array;
  memo : Rng.fill_memo;
  mutable tag : tag option;
}

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
    let e = { data = Array.make len 0.0; memo = Rng.fill_memo (); tag = None } in
    Hashtbl.add t.slots k e;
    e

let arr t ~slot ~len =
  let e = entry t ~slot ~len in
  Rng.forget e.memo;
  e.tag <- None;
  e.data

let gaussian t ~slot ~len rng =
  let e = entry t ~slot ~len in
  e.tag <- None;
  Rng.gaussian_fill_memo rng e.data ~n:len e.memo;
  e.data

let tagged t ~slot ~len ~same tag fill =
  let e = entry t ~slot ~len in
  match e.tag with
  | Some held when same held tag -> e.data
  | _ ->
    (* Untagged while [fill] runs: a fill that raises leaves a slot
       that no later call can mistake for a finished one. *)
    Rng.forget e.memo;
    e.tag <- None;
    fill e.data;
    e.tag <- Some tag;
    e.data

let allocations () = Atomic.get allocs
