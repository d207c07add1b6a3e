(** Run provenance records.

    A manifest captures the identity of one run: exact argv (and the
    seed parsed back out of it), an MD5 content hash of the running
    executable, a digest of the effective configuration, compiler
    version, hostname, and start/end timestamps with exit status.
    Written at exit by [repro --manifest FILE] and embedded (as the
    engine hash) in checkpoint journal headers, so resumed runs can
    verify they replay values produced by the same code. *)

type t = {
  schema : int;
  argv : string list;
  seed : int option;  (** parsed from [--seed N] / [--seed=N] in argv *)
  engine_hash : string;  (** hex MD5 of the executable, ["unknown"] if unreadable *)
  config_digest : string;  (** hex MD5 over the NUL-joined argv *)
  ocaml_version : string;
  hostname : string;
  start_ns : int64;
  mutable end_ns : int64 option;
  mutable exit_status : int option;
}

val create : ?argv:string list -> ?seed:int -> unit -> t
(** Stamp a manifest for the current run ([argv] defaults to
    [Sys.argv]); start time is now, end/status unset. *)

val finish : ?exit_status:int -> t -> unit
(** Stamp the end time and (if known) the exit status. *)

val engine_hash : unit -> string
(** Memoised content hash of the running executable — what
    checkpoint journal headers embed. *)

val to_json : t -> Json.t
(** One flat JSON object, argv as a string array. *)

val of_json : Json.t -> (t, string) result
(** Decode an already-parsed value (a whole manifest file, or the
    object nested in a bench trajectory); an [Error] names the first
    missing or ill-typed field. *)

val write : string -> t -> unit
val read : string -> (t, string) result
