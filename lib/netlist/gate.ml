type kind =
  | And
  | Or
  | Xor
  | Xnor
  | Nand
  | Nor
  | Not
  | Buf

type gate = {
  kind : kind;
  inputs : int list;
  output : int;
}

type t = {
  n_inputs : int;
  n_key_inputs : int;
  n_nets : int;
  gates : gate list;
  outputs : int list;
}

let apply kind values =
  match (kind, values) with
  | Not, [ a ] -> not a
  | Buf, [ a ] -> a
  | And, vs -> List.for_all Fun.id vs
  | Or, vs -> List.exists Fun.id vs
  | Nand, vs -> not (List.for_all Fun.id vs)
  | Nor, vs -> not (List.exists Fun.id vs)
  | Xor, vs -> List.fold_left ( <> ) false vs
  | Xnor, vs -> not (List.fold_left ( <> ) false vs)
  | (Not | Buf), _ -> invalid_arg "Gate.apply: unary gate arity"

(* Reusable evaluation scratch: net values plus the definedness map
   that enforces topological order.  One scratch per circuit shape —
   sharing one across circuits with different [n_nets] is rejected at
   evaluation time. *)
type scratch = {
  s_nets : bool array;
  s_defined : bool array;
}

let scratch t = { s_nets = Array.make t.n_nets false; s_defined = Array.make t.n_nets false }

(* Arity-2 gates (all of the bench circuits) read the nets directly;
   wider gates take the general list path.  Keeping both in one match
   means the hot path allocates nothing — no per-gate value list, no
   closure — while exotic arities still work. *)
let eval_gate nets defined g =
  let read net =
    assert (defined.(net));
    nets.(net)
  in
  match (g.kind, g.inputs) with
  | Not, [ a ] -> not (read a)
  | Buf, [ a ] -> read a
  | And, [ a; b ] -> read a && read b
  | Or, [ a; b ] -> read a || read b
  | Nand, [ a; b ] -> not (read a && read b)
  | Nor, [ a; b ] -> not (read a || read b)
  | Xor, [ a; b ] -> read a <> read b
  | Xnor, [ a; b ] -> read a = read b
  | kind, inputs -> apply kind (List.map read inputs)

let eval_into t sc ~key inputs out =
  if Array.length inputs <> t.n_inputs then invalid_arg "Gate.eval: input arity";
  if Array.length key <> t.n_key_inputs then invalid_arg "Gate.eval: key arity";
  if Array.length sc.s_nets <> t.n_nets then invalid_arg "Gate.eval_into: scratch shape";
  let nets = sc.s_nets and defined = sc.s_defined in
  Array.fill defined 0 t.n_nets false;
  Array.blit inputs 0 nets 0 t.n_inputs;
  Array.blit key 0 nets t.n_inputs t.n_key_inputs;
  for i = 0 to t.n_inputs + t.n_key_inputs - 1 do
    defined.(i) <- true
  done;
  List.iter
    (fun g ->
      nets.(g.output) <- eval_gate nets defined g;
      defined.(g.output) <- true)
    t.gates;
  let k = ref 0 in
  List.iter
    (fun net ->
      out.(!k) <- nets.(net);
      incr k)
    t.outputs

let eval t ~key inputs =
  let out = Array.make (List.length t.outputs) false in
  eval_into t (scratch t) ~key inputs out;
  out

let validate t =
  let in_range net = net >= 0 && net < t.n_nets in
  let defined = Array.make t.n_nets false in
  for i = 0 to t.n_inputs + t.n_key_inputs - 1 do
    defined.(i) <- true
  done;
  let check_gate acc g =
    match acc with
    | Error _ as e -> e
    | Ok () ->
      if not (in_range g.output) then Error "gate output out of range"
      else if List.exists (fun net -> not (in_range net)) g.inputs then
        Error "gate input out of range"
      else if List.exists (fun net -> not defined.(net)) g.inputs then
        Error "gates not in topological order"
      else if defined.(g.output) then Error "net driven twice"
      else begin
        defined.(g.output) <- true;
        Ok ()
      end
  in
  match List.fold_left check_gate (Ok ()) t.gates with
  | Error _ as e -> e
  | Ok () ->
    if List.for_all (fun net -> in_range net && defined.(net)) t.outputs then Ok ()
    else Error "undefined primary output"

let random_inputs_into rng t buf =
  if Array.length buf <> t.n_inputs then invalid_arg "Gate.random_inputs_into: arity";
  for i = 0 to t.n_inputs - 1 do
    buf.(i) <- Sigkit.Rng.bool rng
  done

let random_inputs rng t =
  let buf = Array.make t.n_inputs false in
  random_inputs_into rng t buf;
  buf
