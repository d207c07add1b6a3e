(* Bounded LRU over the engine's content-addressed results.  A cached
   value carries the measurement together with the number of bench
   trials the original evaluation spent, so a hit can keep every trial
   odometer identical to a cold run. *)

type value = {
  measurement : Metrics.Spec.measurement;
  trial_cost : int;
}

type entry = {
  key : string;
  mutable value : value;
  mutable prev : entry option;  (* towards most-recent *)
  mutable next : entry option;  (* towards least-recent *)
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* least recently used *)
}

let hit_counter = Telemetry.Counter.make "engine.cache.hit"
let miss_counter = Telemetry.Counter.make "engine.cache.miss"
let evict_counter = Telemetry.Counter.make "engine.cache.evict"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
    unlink t e;
    push_front t e

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    Telemetry.Counter.incr hit_counter;
    touch t e;
    Some e.value
  | None ->
    Telemetry.Counter.incr miss_counter;
    None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
    unlink t e;
    Hashtbl.remove t.table e.key;
    Telemetry.Counter.incr evict_counter

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.value <- value;
    touch t e
  | None ->
    let e = { key; value; prev = None; next = None } in
    Hashtbl.add t.table key e;
    push_front t e;
    if Hashtbl.length t.table > t.capacity then evict_lru t
