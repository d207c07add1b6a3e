(* Totality checks for on-disk readers.  A reader fed a damaged copy of
   a valid file must return, [Ok] or a typed [Error], and never raise.
   Tried exhaustively: every prefix, and every position overwritten
   with each byte that means something to the JSON grammar.  Then
   random single-byte replacements with any byte. *)

let raised read s =
  match read s with _ -> None | exception e -> Some (Printexc.to_string e)

let grammar_bytes = "-09.e\"\\{}[],:\nu\x00\xff"

let replace s pos c = String.mapi (fun i x -> if i = pos then c else x) s

(* [valid] is forced when the cases run, so a fixture that needs I/O is
   not built at module load. *)
let cases ~what ?(count = 500) (valid : string Lazy.t) read =
  let must_return label s =
    match raised read s with
    | None -> ()
    | Some e -> Alcotest.failf "%s: %s raised %s on %S" what label e s
  in
  let exhaustive () =
    let s = Lazy.force valid in
    for k = 0 to String.length s - 1 do
      must_return (Printf.sprintf "prefix of %d bytes" k) (String.sub s 0 k);
      String.iter
        (fun c -> must_return (Printf.sprintf "byte %d := %C" k c) (replace s k c))
        grammar_bytes
    done
  in
  let flipped =
    QCheck.make
      ~print:(Printf.sprintf "%S")
      (fun rand ->
        let s = Lazy.force valid in
        replace s (Random.State.int rand (String.length s)) (Char.chr (Random.State.int rand 256)))
  in
  [
    Alcotest.test_case (what ^ ": truncations and grammar-byte flips are total") `Quick exhaustive;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count ~name:(what ^ ": random byte flips are total") flipped (fun s ->
           match raised read s with
           | None -> true
           | Some e -> QCheck.Test.fail_reportf "raised %s" e));
  ]
