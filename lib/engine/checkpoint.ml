(* Crash-safe evaluation journal.

   An append-only JSONL file, one line per completed evaluation,
   content-keyed by the request's cache key.  Every record is flushed
   and fsync'd before [record] returns, so the journal is exactly the
   set of evaluations that completed — a resumed campaign replays those
   cells (value and trial cost, bit-identical: floats are stored as
   exact hexadecimal literals) and computes only what is missing.

   Crash tolerance: a process killed mid-write leaves at most one torn
   final line; [load ~resume:true] drops it (and truncates the file
   back to the last good record) and counts [engine.checkpoint.torn].
   A malformed line anywhere *before* the end is not a crash artefact
   and is reported as corruption instead of being silently skipped.

   The journal is shared by every evaluation lane: [record] and [find]
   are mutex-protected, so pool worker domains journal their own
   completions directly (which is what makes a SIGINT mid-batch lose
   nothing that finished). *)

type corruption = {
  path : string;
  line : int;
  reason : string;
}

type t = {
  path : string;
  table : (string, Cache.value) Hashtbl.t;
  m : Mutex.t;
  mutable oc : out_channel option;
}

let version = 1

let hits_counter = Telemetry.Counter.make "engine.checkpoint.hits"
let records_counter = Telemetry.Counter.make "engine.checkpoint.records"
let resumed_counter = Telemetry.Counter.make "engine.checkpoint.resumed"
let torn_counter = Telemetry.Counter.make "engine.checkpoint.torn"
let mismatch_counter = Telemetry.Counter.make "engine.checkpoint.provenance_mismatch"

(* ------------------------------------------------------- serialisation *)

module Json = Telemetry.Json

(* The header carries the engine's content hash (optional field — v1
   journals without it still load).  A resume under a different binary
   is not an error: values are content-keyed, so at worst the new code
   recomputes what no longer matches — but it *is* worth a warning and
   a counter, because "resumed under different code" explains most
   surprising resume diffs. *)
let header_line () =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.String "journal");
         ("version", Json.int version);
         ("engine", Json.String (Telemetry.Manifest.engine_hash ()));
       ])

(* Floats as exact strings (Json.float_repr), which is what makes a
   resumed report byte-identical to an uninterrupted one. *)
let entry_line key (v : Cache.value) =
  let m = v.Cache.measurement in
  let exact x = Json.String (Json.float_repr x) in
  Json.to_string
    (Json.Obj
       [
         ("type", Json.String "cell");
         ("key", Json.String key);
         ("snr_mod", exact m.Metrics.Spec.snr_mod_db);
         ("snr_rx", exact m.Metrics.Spec.snr_rx_db);
         ("sfdr", Option.fold ~none:Json.Null ~some:exact m.Metrics.Spec.sfdr_db);
         ("cost", Json.int v.Cache.trial_cost);
       ])

(* ------------------------------------------------------------- parsing *)

let ( let* ) = Result.bind

let field fields name =
  Option.to_result ~none:(Printf.sprintf "missing field %S" name) (Json.member name fields)

let exact_float fields name =
  let* v = field fields name in
  match v with
  | Json.String s ->
    Option.to_result ~none:(Printf.sprintf "bad float in %S" name) (Json.float_of_repr s)
  | _ -> Error (Printf.sprintf "field %S must be a float string" name)

let parse_entry line =
  let* fields = Json.of_string line in
  let* ty = field fields "type" in
  match ty with
  | Json.String "cell" ->
    let* key =
      let* k = field fields "key" in
      match k with Json.String k -> Ok k | _ -> Error "field \"key\" must be a string"
    in
    let* snr_mod_db = exact_float fields "snr_mod" in
    let* snr_rx_db = exact_float fields "snr_rx" in
    let* sfdr_db =
      let* v = field fields "sfdr" in
      match v with Json.Null -> Ok None | _ -> Result.map Option.some (exact_float fields "sfdr")
    in
    let* trial_cost =
      let* c = field fields "cost" in
      match Json.to_int c with
      | Some c when c >= 0 -> Ok c
      | _ -> Error "field \"cost\" must be a non-negative integer"
    in
    Ok
      ( key,
        { Cache.measurement = { Metrics.Spec.snr_mod_db; snr_rx_db; sfdr_db }; trial_cost } )
  | Json.String other -> Error (Printf.sprintf "unknown record type %S" other)
  | _ -> Error "field \"type\" must be a string"

(* Returns the recorded engine hash when the header carries one. *)
let parse_header line =
  let* fields = Json.of_string line in
  let* () =
    match Json.member "type" fields with
    | Some (Json.String "journal") -> Ok ()
    | _ -> Error "not a journal header"
  in
  let* v = field fields "version" in
  match Json.to_int v with
  | Some v when v = version -> (
    match Json.member "engine" fields with Some (Json.String h) -> Ok (Some h) | _ -> Ok None)
  | Some v -> Error (Printf.sprintf "unsupported journal version %d" v)
  | None -> Error "field \"version\" must be an integer"

let verify_provenance path = function
  | None -> ()  (* journal predates provenance headers *)
  | Some recorded ->
    let current = Telemetry.Manifest.engine_hash () in
    if recorded <> current && recorded <> "unknown" && current <> "unknown" then begin
      Telemetry.Counter.incr mismatch_counter;
      Telemetry.Log.warn
        ~fields:[ ("path", path); ("recorded", recorded); ("current", current) ]
        "checkpoint: journal was written by a different engine build"
    end

(* --------------------------------------------------------- open / load *)

let fresh_channel path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc (header_line ());
  output_char oc '\n';
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  oc

(* Split raw journal bytes into complete lines plus the end offset of
   the last *parseable* prefix, so a torn tail can be truncated away
   before appending resumes. *)
let load ~resume path =
  let table = Hashtbl.create 256 in
  let fresh () =
    Ok { path; table; m = Mutex.create (); oc = Some (fresh_channel path) }
  in
  if not resume then fresh ()
  else if not (Sys.file_exists path) then fresh ()
  else begin
    let raw = In_channel.with_open_bin path In_channel.input_all in
    if String.length raw = 0 then fresh ()
    else begin
      (* Lines with their end offsets (offset just past the '\n'); a
         trailing fragment without '\n' is kept as a final, torn-marked
         line. *)
      let lines = ref [] in
      let start = ref 0 in
      String.iteri (fun i c -> if c = '\n' then begin
          lines := (String.sub raw !start (i - !start), i + 1, true) :: !lines;
          start := i + 1
        end) raw;
      if !start < String.length raw then
        lines := (String.sub raw !start (String.length raw - !start), String.length raw, false)
                 :: !lines;
      let lines = Array.of_list (List.rev !lines) in
      let n_lines = Array.length lines in
      let good_end = ref 0 in
      let result = ref None in
      (try
         Array.iteri
           (fun idx (line, end_off, terminated) ->
             let last = idx = n_lines - 1 in
             if not terminated then begin
               (* No trailing newline: the write was cut mid-line.  Even
                  if the bytes happen to parse, the record never became
                  durable — drop it so the table matches what stays on
                  disk after truncation. *)
               ignore end_off;
               Telemetry.Counter.incr torn_counter;
               raise Exit
             end;
             let parsed =
               if idx = 0 then Result.map (verify_provenance path) (parse_header line)
               else
                 Result.map
                   (fun (key, value) ->
                     if not (Hashtbl.mem table key) then begin
                       Hashtbl.replace table key value;
                       Telemetry.Counter.incr resumed_counter
                     end)
                   (parse_entry line)
             in
             match parsed with
             | Ok () -> good_end := end_off
             | Error reason ->
               if last && idx > 0 then begin
                 (* Torn final write from a crash that still got its
                    newline out: drop it.  The header never qualifies —
                    it is fsync'd before any record is accepted, so a
                    malformed line 1 is corruption, not a crash. *)
                 Telemetry.Counter.incr torn_counter;
                 raise Exit
               end
               else begin
                 result := Some { path; line = idx + 1; reason };
                 raise Exit
               end)
           lines
       with Exit -> ());
      match !result with
      | Some corruption -> Error corruption
      | None ->
        (* Truncate back to the last fully-terminated good line, then
           reopen for append. *)
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd !good_end;
        Unix.close fd;
        let oc =
          if !good_end = 0 then fresh_channel path
          else open_out_gen [ Open_wronly; Open_append ] 0o644 path
        in
        Ok { path; table; m = Mutex.create (); oc = Some oc }
    end
  end

(* ------------------------------------------------------------ journal *)

let find t key =
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.m;
  if r <> None then Telemetry.Counter.incr hits_counter;
  r

let record t key value =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        Hashtbl.replace t.table key value;
        match t.oc with
        | None -> ()
        | Some oc ->
          output_string oc (entry_line key value);
          output_char oc '\n';
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc);
          Telemetry.Counter.incr records_counter
      end)

let entries t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.m;
  n

let path t = t.path

let close t =
  Mutex.lock t.m;
  (match t.oc with
  | None -> ()
  | Some oc ->
    flush oc;
    (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
    close_out oc;
    t.oc <- None);
  Mutex.unlock t.m

let corruption_to_string { path; line; reason } =
  Printf.sprintf "checkpoint %s corrupt at line %d: %s" path line reason
