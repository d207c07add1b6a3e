(** Gate-level combinational netlists.

    A small but real logic-netlist engine: the substrate for the
    MixLock-style baselines ([9], [10]) that lock the digital section of
    a mixed-signal circuit, and for their removal/key attacks.  Nets are
    integers; gate order must be topological (asserted at evaluation). *)

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
  inputs : int list;   (** net ids *)
  output : int;        (** net id *)
}

type t = {
  n_inputs : int;        (** nets 0 .. n_inputs-1 are primary inputs *)
  n_key_inputs : int;    (** nets n_inputs .. +n_key_inputs-1 are key inputs *)
  n_nets : int;
  gates : gate list;     (** topological order *)
  outputs : int list;    (** primary-output net ids *)
}

val eval : t -> key:bool array -> bool array -> bool array
(** [eval t ~key inputs] computes the primary outputs.  Raises
    [Invalid_argument] on arity mismatches. *)

type scratch
(** Reusable evaluation buffers for one circuit shape (sized by
    [n_nets]).  Attack and corruption loops evaluate the same netlist
    10^4–10^6 times; hoisting the scratch out of the loop makes each
    evaluation allocation-free (DESIGN §15). *)

val scratch : t -> scratch

val eval_into : t -> scratch -> key:bool array -> bool array -> bool array -> unit
(** [eval_into t sc ~key inputs out] is [eval] into caller-provided
    [out] (length = number of primary outputs) using [sc] for net
    values.  A scratch built for a different [n_nets] is rejected.
    Bit-identical to [eval]. *)

val validate : t -> (unit, string) result
(** Structural checks: net ranges, topological order, output defined. *)

val random_inputs : Sigkit.Rng.t -> t -> bool array

val random_inputs_into : Sigkit.Rng.t -> t -> bool array -> unit
(** Fill a caller-provided primary-input vector (same draw sequence
    as {!random_inputs}). *)
