type t = {
  name : string;
  value : int Atomic.t;
}

let table : (string, t) Hashtbl.t = Hashtbl.create 64

(* Registration happens at module-initialisation time (top-level [make]
   calls), i.e. on the main domain before any worker domain exists, so
   the table itself needs no lock; the hot-path increments are atomic
   so worker domains in the evaluation engine's pool never lose
   counts. *)
let make name =
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
    let c = { name; value = Atomic.make 0 } in
    Hashtbl.add table name c;
    c

let incr t = Atomic.incr t.value

let add t n = ignore (Atomic.fetch_and_add t.value n)

let value t = Atomic.get t.value
let find name = Hashtbl.find_opt table name

let snapshot () =
  Hashtbl.fold (fun name c acc -> (name, Atomic.get c.value) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () = Hashtbl.iter (fun _ c -> Atomic.set c.value 0) table
