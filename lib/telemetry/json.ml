(* The one JSON codec.

   Telemetry sits below every other library, so the journal, manifest,
   bench, campaign and export formats all meet here.  Numbers are kept
   as literal text: each writer chooses its own rendering (and the
   pinned formats use several), and a reader converts only the fields
   it needs, at the precision it needs. *)

type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -------------------------------------------------------------- numbers *)

let int i = Number (string_of_int i)
let int64 i = Number (Int64.to_string i)
let float x = if Float.is_finite x then Number (Printf.sprintf "%.6g" x) else Null
let fixed decimals x = if Float.is_finite x then Number (Printf.sprintf "%.*f" decimals x) else Null

(* The parser only builds grammar-valid literals, so these conversions
   see decimal text: OCaml's radix prefixes and underscores cannot
   sneak in. *)
let to_int = function Number s -> int_of_string_opt s | _ -> None
let to_int64 = function Number s -> Int64.of_string_opt s | _ -> None
let to_float = function Number s -> float_of_string_opt s | _ -> None

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

(* -------------------------------------------------------------- writing *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
        | c -> Buffer.add_char buf c)
      s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number s -> Buffer.add_string buf s
  | String s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (String k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* -------------------------------------------------------------- parsing *)

exception Fail of string

let max_depth = 512

let of_string src =
  let n = String.length src in
  let i = ref 0 in
  let fail what = raise (Fail (Printf.sprintf "%s at byte %d" what !i)) in
  let peek () = if !i < n then src.[!i] else '\000' in
  let at_end () = !i >= n in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr i;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let len = String.length word in
    if !i + len <= n && String.sub src !i len = word then begin
      i := !i + len;
      v
    end
    else fail "unrecognised value"
  in
  let is_digit c = c >= '0' && c <= '9' in
  let digits () =
    if not (is_digit (peek ())) then fail "expected a digit";
    while is_digit (peek ()) do incr i done
  in
  let number () =
    let start = !i in
    if peek () = '-' then incr i;
    if peek () = '0' then incr i else digits ();
    if peek () = '.' then begin
      incr i;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr i;
      if peek () = '+' || peek () = '-' then incr i;
      digits ()
    end;
    Number (String.sub src start (!i - start))
  in
  let hex4 () =
    if !i + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for k = !i to !i + 3 do
      let d =
        match src.[k] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    i := !i + 4;
    !code
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if at_end () then fail "unterminated string";
      let c = src.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if at_end () then fail "truncated escape";
        let e = src.[!i] in
        incr i;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hi = hex4 () in
          let code =
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* A high surrogate must pair with an escaped low one. *)
              if !i + 2 > n || src.[!i] <> '\\' || src.[!i + 1] <> 'u' then
                fail "unpaired surrogate";
              i := !i + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
              0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then fail "unpaired surrogate"
            else hi
          in
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | _ -> fail "unknown escape");
        go ()
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* Comma-separated items up to [close]; the opening bracket is
     already consumed. *)
  let sequence close item =
    skip_ws ();
    if peek () = close then begin
      incr i;
      []
    end
    else begin
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then begin
          incr i;
          skip_ws ();
          go acc
        end
        else begin
          expect close;
          List.rev acc
        end
      in
      go []
    end
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if at_end () then fail "missing value";
    match src.[!i] with
    | '{' ->
      incr i;
      Obj
        (sequence '}' (fun () ->
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' ->
      incr i;
      List (sequence ']' (fun () -> value (depth + 1)))
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unrecognised value"
  in
  match
    let v = value 0 in
    skip_ws ();
    if not (at_end ()) then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail reason -> Error reason

(* ------------------------------------------------------- exact floats *)

let float_repr x =
  if Float.is_nan x then Printf.sprintf "bits:%016Lx" (Int64.bits_of_float x)
  else Printf.sprintf "%h" x

let float_of_repr s =
  let n = String.length s in
  if n > 5 && String.sub s 0 5 = "bits:" then
    Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ String.sub s 5 (n - 5)))
  else float_of_string_opt s
