(* Leveled, domain-safe structured logging.

   One process-wide logger with two sinks: an ASCII line per event on
   stderr (human operators tailing a campaign) and an optional JSONL
   file (machines).  Events carry a message plus free-form key/value
   fields; both sinks render the same event, so grepping stderr and
   querying the JSONL never disagree.

   The level check is the hot path — call sites all over the simulator
   supervision layers fire [debug]/[info] unconditionally — so it is a
   single atomic load and an integer compare before any formatting or
   allocation happens.  Emission itself takes a mutex: code running on
   worker domains in the evaluation engine's pool (nested
   calibrations, say) logs too, and interleaved half-lines would
   defeat the point of structured output. *)

type level = Debug | Info | Warn | Error

let int_of_level = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* Default Warn: a clean run is silent, supervision events (torn
   journals, degraded calibrations) always surface. *)
let threshold = Atomic.make (int_of_level Warn)

let set_level l = Atomic.set threshold (int_of_level l)

let level () =
  match Atomic.get threshold with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let enabled l = int_of_level l >= Atomic.get threshold

let lines_counter = Counter.make "log.lines"

(* ---------------------------------------------------------------- sinks *)

let stderr_enabled = Atomic.make true
let set_stderr b = Atomic.set stderr_enabled b

let sink_mutex = Mutex.create ()
let jsonl_oc : out_channel option ref = ref None

let to_file path =
  Mutex.lock sink_mutex;
  (match !jsonl_oc with Some oc -> close_out oc | None -> ());
  jsonl_oc := Some (open_out path);
  Mutex.unlock sink_mutex

let close_file () =
  Mutex.lock sink_mutex;
  (match !jsonl_oc with Some oc -> close_out oc | None -> ());
  jsonl_oc := None;
  Mutex.unlock sink_mutex

(* ------------------------------------------------------------ rendering *)

let ascii_line ~t ~l ~msg ~fields =
  let tm = Unix.gmtime t in
  let ms = int_of_float (Float.rem t 1.0 *. 1000.0) in
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Printf.sprintf "%02d:%02d:%02d.%03d %-5s %s" tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
       ms (level_name l) msg);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      (* Quote values an operator could mis-tokenise. *)
      if v <> "" && String.for_all (fun c -> c > ' ' && c <> '"' && c <> '=') v then
        Buffer.add_string buf v
      else Buffer.add_string buf (Json.to_string (Json.String v)))
    fields;
  Buffer.contents buf

let json_line ~t ~l ~msg ~fields =
  Json.to_string
    (Json.Obj
       ([
          ("ts_ns", Json.int64 (Int64.of_float (t *. 1e9)));
          ("level", Json.String (level_name l));
          ("msg", Json.String msg);
        ]
       @
       if fields = [] then []
       else [ ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fields)) ]))

let emit l msg fields =
  Counter.incr lines_counter;
  let t = Unix.gettimeofday () in
  Mutex.lock sink_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sink_mutex)
    (fun () ->
      if Atomic.get stderr_enabled then begin
        output_string stderr (ascii_line ~t ~l ~msg ~fields);
        output_char stderr '\n';
        flush stderr
      end;
      match !jsonl_oc with
      | None -> ()
      | Some oc ->
        output_string oc (json_line ~t ~l ~msg ~fields);
        output_char oc '\n';
        flush oc)

let log l ?(fields = []) msg = if enabled l then emit l msg fields

let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg
