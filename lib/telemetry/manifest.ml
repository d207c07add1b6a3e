(* Run provenance.

   A manifest is the who/what/when of one run: the exact argv, the
   seed it encodes, a content hash of the running executable (the
   "engine"), a digest of the effective configuration, the compiler
   version, and start/end timestamps with the exit status.  One is
   written at exit when a run asks for it ([--manifest FILE]), and
   the engine hash is embedded in checkpoint journal headers so a
   resume can tell when it is replaying values produced by different
   code.

   Serialisation is a single flat JSON object (argv as a string
   array).  The decoder takes an already-parsed value, so a manifest
   nested in another file (a bench trajectory) decodes in place. *)

type t = {
  schema : int;
  argv : string list;
  seed : int option;
  engine_hash : string;
  config_digest : string;
  ocaml_version : string;
  hostname : string;
  start_ns : int64;
  mutable end_ns : int64 option;
  mutable exit_status : int option;
}

let schema_version = 1

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* MD5 of the running binary: the closest thing to a content address
   of "the engine" available without new dependencies.  Memoised —
   hashing a multi-megabyte executable is not free and the answer
   cannot change mid-process. *)
let engine_hash =
  let memo = lazy (try Digest.to_hex (Digest.file Sys.executable_name) with _ -> "unknown") in
  fun () -> Lazy.force memo

let config_digest_of argv = Digest.to_hex (Digest.string (String.concat "\x00" argv))

(* The seed is CLI provenance, so read it back out of argv rather than
   threading a parameter through every subcommand. *)
let seed_of_argv argv =
  let rec go = function
    | [] -> None
    | arg :: rest ->
      let prefixed p = String.length arg > String.length p && String.sub arg 0 (String.length p) = p in
      if arg = "--seed" then
        match rest with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else if prefixed "--seed=" then int_of_string_opt (String.sub arg 7 (String.length arg - 7))
      else go rest
  in
  go argv

let create ?argv ?seed () =
  let argv = match argv with Some a -> a | None -> Array.to_list Sys.argv in
  {
    schema = schema_version;
    argv;
    seed = (match seed with Some _ -> seed | None -> seed_of_argv argv);
    engine_hash = engine_hash ();
    config_digest = config_digest_of argv;
    ocaml_version = Sys.ocaml_version;
    hostname = Unix.gethostname ();
    start_ns = now_ns ();
    end_ns = None;
    exit_status = None;
  }

let finish ?exit_status t =
  t.end_ns <- Some (now_ns ());
  t.exit_status <- exit_status

(* ---------------------------------------------------------------- JSON *)

let to_json t =
  let opt f = function None -> Json.Null | Some v -> f v in
  Json.Obj
    [
      ("type", Json.String "manifest");
      ("schema", Json.int t.schema);
      ("argv", Json.List (List.map (fun a -> Json.String a) t.argv));
      ("seed", opt Json.int t.seed);
      ("engine_hash", Json.String t.engine_hash);
      ("config_digest", Json.String t.config_digest);
      ("ocaml_version", Json.String t.ocaml_version);
      ("hostname", Json.String t.hostname);
      ("start_ns", Json.int64 t.start_ns);
      ("end_ns", opt Json.int64 t.end_ns);
      ("exit_status", opt Json.int t.exit_status);
    ]

let of_json v =
  let ( let* ) = Result.bind in
  let field name =
    Option.to_result ~none:(Printf.sprintf "missing field %S" name) (Json.member name v)
  in
  let str name =
    let* x = field name in
    match x with Json.String s -> Ok s | _ -> Error (name ^ " must be a string")
  in
  let number conv name =
    let* x = field name in
    Option.to_result ~none:(name ^ " must be an integer") (conv x)
  in
  let nullable conv name =
    let* x = field name in
    match x with
    | Json.Null -> Ok None
    | x -> Option.to_result ~none:(name ^ " must be an integer or null") (Option.map Option.some (conv x))
  in
  let* () =
    match Json.member "type" v with
    | Some (Json.String "manifest") -> Ok ()
    | _ -> Error "not a manifest"
  in
  let* schema = number Json.to_int "schema" in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported manifest schema %d" schema)
  in
  let* argv =
    let* x = field "argv" in
    let strings = function
      | Json.List items ->
        List.fold_right
          (fun item acc ->
            match (item, acc) with Json.String a, Some rest -> Some (a :: rest) | _ -> None)
          items (Some [])
      | _ -> None
    in
    Option.to_result ~none:"argv must be an array of strings" (strings x)
  in
  let* seed = nullable Json.to_int "seed" in
  let* engine_hash = str "engine_hash" in
  let* config_digest = str "config_digest" in
  let* ocaml_version = str "ocaml_version" in
  let* hostname = str "hostname" in
  let* start_ns = number Json.to_int64 "start_ns" in
  let* end_ns = nullable Json.to_int64 "end_ns" in
  let* exit_status = nullable Json.to_int "exit_status" in
  Ok
    {
      schema;
      argv;
      seed;
      engine_hash;
      config_digest;
      ocaml_version;
      hostname;
      start_ns;
      end_ns;
      exit_status;
    }

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> Result.bind (Json.of_string raw) of_json
