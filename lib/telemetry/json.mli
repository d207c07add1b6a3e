(** The one JSON codec behind every on-disk format: the checkpoint
    journal, run manifests, bench trajectory files, the campaign
    report, the telemetry exports and the structured log.

    Numbers are kept as their literal text.  Writers pick the exact
    rendering each pinned format uses ({!int}, {!float}, {!fixed}) and
    readers convert on demand ({!to_int}, {!to_int64}, {!to_float}),
    so an [int64] nanosecond stamp never passes through a float and a
    re-written file is byte-identical to the one that was read.

    Reading is total: {!of_string} returns [Error] on any malformed
    input and never raises. *)

type t =
  | Null
  | Bool of bool
  | Number of string
      (** a JSON number literal, verbatim; build one with {!int},
          {!int64}, {!float} or {!fixed} *)
  | String of string  (** raw bytes; bytes >= 0x80 pass through unescaped *)
  | List of t list
  | Obj of (string * t) list  (** fields in source order *)

(** {1 Numbers} *)

val int : int -> t
val int64 : int64 -> t

val float : float -> t
(** ["%.6g"]; non-finite values become [Null] (JSON has no nan or
    infinity literal). *)

val fixed : int -> float -> t
(** [fixed d x] is ["%.*f"] with [d] decimals; non-finite values become
    [Null]. *)

val to_int : t -> int option
(** [Some] only for an integer literal that fits an OCaml [int]. *)

val to_int64 : t -> int64 option
val to_float : t -> float option

(** {1 Objects} *)

val member : string -> t -> t option
(** The first field named so, when the value is an object. *)

(** {1 Text} *)

val to_string : t -> string
(** Compact single-line rendering: no whitespace between tokens; double
    quote, backslash, newline, carriage return and tab escaped by their
    short forms, other control bytes as [\u00XX]. *)

val of_string : string -> (t, string) result
(** Parse exactly one value, surrounded by optional whitespace.
    Strict RFC 8259 grammar; [\uXXXX] escapes decode to UTF-8.  Never
    raises: malformed, truncated or over-deep (more than 512 levels)
    input is an [Error] naming the byte offset. *)

(** {1 Exact floats} *)

val float_repr : float -> string
(** Lossless text for any float: OCaml's hexadecimal ["%h"] for every
    non-nan value (the infinities and [-0.0] included), and
    ["bits:%016Lx"] of the raw bit pattern for nans, whose sign and
    payload ["%h"] would collapse. *)

val float_of_repr : string -> float option
(** Inverse of {!float_repr}, bit-for-bit. *)
