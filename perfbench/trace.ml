(* In-memory span recorder for the traced run.

   Spans are taken from the benchmark's own code, around each call it
   makes into a library layer; the libraries' own Telemetry spans stay
   off.  Everything is kept in memory and written once, at exit. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  rid : string;  (* request id shared by the spans of one request *)
  start_ns : int64;
  end_ns : int64;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let rid = ref "-"

let with_rid r f =
  let saved = !rid in
  rid := r;
  Fun.protect ~finally:(fun () -> rid := saved) f

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let rid = !rid in
    stack := id :: !stack;
    let start_ns = Telemetry.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Telemetry.Clock.now_ns () in
        stack := List.tl !stack;
        recorded := { id; parent; name; rid; start_ns; end_ns } :: !recorded)
      f
  end

let dur s = Int64.sub s.end_ns s.start_ns

let spans () = List.rev !recorded

type total = {
  calls : int;
  total_ns : int64;
  self_ns : int64;
}

(* Per-name totals.  A span's self time is its duration minus the time
   its direct children cover. *)
let totals () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (Int64.add prev (dur s)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = Int64.sub (dur s) (Option.value ~default:0L (Hashtbl.find_opt children s.id)) in
      let t =
        Option.value ~default:{ calls = 0; total_ns = 0L; self_ns = 0L }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = t.calls + 1; total_ns = Int64.add t.total_ns (dur s); self_ns = Int64.add t.self_ns self })
    !recorded;
  List.sort compare (Hashtbl.fold (fun name t acc -> (name, t) :: acc) by_name [])

(* One JSON object per span, in start order. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"rid\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" s.id
        s.parent s.name s.rid s.start_ns s.end_ns)
    (List.sort (fun a b -> compare a.start_ns b.start_ns) (spans ()))
