(** Leveled, domain-safe structured logging.

    One process-wide logger, two sinks: ASCII lines on stderr (on by
    default) and an optional JSONL file.  Events carry a message and
    free-form key/value fields.  Call sites below the emission
    threshold cost one atomic load and an integer compare — no
    formatting, no allocation — so [debug]/[info] calls can sit on
    supervision paths unconditionally.  Emission is mutex-serialised,
    so worker domains in the evaluation engine's pool can log without
    interleaving.

    The default level is [Warn]: a healthy run is silent on stderr
    while torn journals and degraded calibrations always surface. *)

type level = Debug | Info | Warn | Error

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** [enabled l] is true when a log call at [l] would emit — the guard
    to use before building expensive fields. *)

val level_name : level -> string
val level_of_string : string -> level option
(** Accepts ["debug"|"info"|"warn"|"warning"|"error"], any case. *)

val set_stderr : bool -> unit
(** Enable/disable the ASCII stderr sink (default enabled). *)

val to_file : string -> unit
(** Open (truncating) a JSONL sink at the path; one
    [{"ts_ns":..,"level":..,"msg":..,"fields":{..}}] object per line.
    Replaces any previously opened sink. *)

val close_file : unit -> unit

val debug : ?fields:(string * string) list -> string -> unit
val info : ?fields:(string * string) list -> string -> unit
val warn : ?fields:(string * string) list -> string -> unit
val error : ?fields:(string * string) list -> string -> unit

val log : level -> ?fields:(string * string) list -> string -> unit
