type event = {
  ev_name : string;
  ev_attrs : (string * string) list;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;
}

type aggregate = {
  agg_name : string;
  agg_calls : int;
  agg_total_ns : int64;
  agg_self_ns : int64;
  agg_p50_ns : float;
  agg_p99_ns : float;
}

type agg = {
  a_name : string;
  mutable a_calls : int;
  mutable a_total_ns : int64;
  mutable a_self_ns : int64;
  a_durations : Histogram.t;
}

type frame = {
  f_agg : agg;
  f_attrs : (string * string) list;
  f_start : int64;
  f_depth : int;
  mutable f_child_ns : int64;
}

let capacity = 1_000_000

(* Main-domain state, like the stack and event buffer below: [record]
   writes it only there, and [aggregates]/[reset] run only from
   [Export] and the executables' exits, so it needs no lock. *)
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

let stack : frame list ref = ref []
let events_rev : event list ref = ref []
let n_events = ref 0
let n_dropped = ref 0
let epoch = ref None

let agg_of name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a =
      {
        a_name = name;
        a_calls = 0;
        a_total_ns = 0L;
        a_self_ns = 0L;
        a_durations = Histogram.unregistered name;
      }
    in
    Hashtbl.add aggs name a;
    a

let finish frame =
  let dur = Clock.elapsed_ns ~since:frame.f_start in
  (match !stack with
  | top :: rest when top == frame -> stack := rest
  | _ -> () (* unbalanced finish: enable flag flipped mid-span *));
  let a = frame.f_agg in
  a.a_calls <- a.a_calls + 1;
  a.a_total_ns <- Int64.add a.a_total_ns dur;
  let self = Int64.sub dur frame.f_child_ns in
  let self = if Int64.compare self 0L < 0 then 0L else self in
  a.a_self_ns <- Int64.add a.a_self_ns self;
  Histogram.observe a.a_durations (Int64.to_float dur);
  (match !stack with
  | parent :: _ -> parent.f_child_ns <- Int64.add parent.f_child_ns dur
  | [] -> ());
  if !n_events >= capacity then incr n_dropped
  else begin
    incr n_events;
    events_rev :=
      {
        ev_name = a.a_name;
        ev_attrs = frame.f_attrs;
        ev_start_ns = frame.f_start;
        ev_dur_ns = dur;
        ev_depth = frame.f_depth;
      }
      :: !events_rev
  end

(* The span stack and event buffer are single-domain structures.  Spans
   are only recorded on the domain that initialised telemetry (the main
   domain); worker domains in the evaluation engine's pool run the
   traced code without recording, which keeps traces well-nested and
   race-free.  Counters and histograms remain exact on all domains. *)
let main_domain = Domain.self ()

let[@inline never] record ~attrs ~name f =
  if Domain.self () <> main_domain then f ()
  else begin
    let start = Clock.now_ns () in
    if !epoch = None then epoch := Some start;
    let frame =
      { f_agg = agg_of name; f_attrs = attrs; f_start = start; f_depth = List.length !stack;
        f_child_ns = 0L }
    in
    stack := frame :: !stack;
    Fun.protect ~finally:(fun () -> finish frame) f
  end

(* Split so the disabled case — the default in production runs — is a
   single flag load and a branch, inlinable at every call site; all
   recording machinery lives behind a never-inlined slow path. *)
let[@inline] with_ ?(attrs = []) ~name f =
  if not (Control.enabled ()) then f () else record ~attrs ~name f

let aggregates () =
  Hashtbl.fold
    (fun _ a acc ->
      {
        agg_name = a.a_name;
        agg_calls = a.a_calls;
        agg_total_ns = a.a_total_ns;
        agg_self_ns = a.a_self_ns;
        agg_p50_ns = Histogram.quantile a.a_durations 0.5;
        agg_p99_ns = Histogram.quantile a.a_durations 0.99;
      }
      :: acc)
    aggs []
  |> List.sort (fun x y ->
         match Int64.compare y.agg_total_ns x.agg_total_ns with
         | 0 -> String.compare x.agg_name y.agg_name
         | c -> c)

let events () = List.rev !events_rev

let epoch_ns () =
  match !epoch with
  | Some t -> t
  | None -> Clock.now_ns ()

let dropped () = !n_dropped

let reset () =
  Hashtbl.reset aggs;
  stack := [];
  events_rev := [];
  n_events := 0;
  n_dropped := 0;
  epoch := None
