(* Tests for the bench trajectory file format and its regression
   gate: schema-2 write/read round-trips (manifest included), rejection
   of every other schema, the gate's pass / regress / missing verdicts
   under both full-suite and --only semantics, and the committed
   baseline's allocation budgets. *)

open Benchkit

let kernels =
  [
    { Bench_json.name = "engine:cache-hit"; ns_per_run = 120.5; minor_words_per_run = 2.0 };
    { Bench_json.name = "fft:1024"; ns_per_run = 25000.25; minor_words_per_run = 130.0 };
    { Bench_json.name = "sdm:loop"; ns_per_run = 910000.125; minor_words_per_run = 0.0 };
  ]

let with_temp_file f =
  let path = Filename.temp_file "test_bench" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ----------------------------------------------------- file format *)

let test_v2_roundtrip () =
  with_temp_file @@ fun path ->
  let manifest =
    Telemetry.Manifest.create ~argv:[ "bench"; "--fast"; "--seed"; "7" ] ()
  in
  Telemetry.Manifest.finish ~exit_status:0 manifest;
  Bench_json.write ~path ~manifest kernels;
  match Bench_json.read path with
  | Error reason -> Alcotest.fail ("schema-2 file does not read back: " ^ reason)
  | Ok file ->
    Alcotest.(check int) "kernel count" 3 (List.length file.Bench_json.kernels);
    let k = List.find (fun k -> k.Bench_json.name = "fft:1024") file.Bench_json.kernels in
    Alcotest.(check (float 1e-9)) "ns round-trips" 25000.25 k.Bench_json.ns_per_run;
    Alcotest.(check (float 1e-9)) "mwd round-trips" 130.0 k.Bench_json.minor_words_per_run;
    (* Kernels come back name-sorted regardless of input order. *)
    Alcotest.(check (list string)) "sorted"
      [ "engine:cache-hit"; "fft:1024"; "sdm:loop" ]
      (List.map (fun k -> k.Bench_json.name) file.Bench_json.kernels);
    (match file.Bench_json.manifest with
    | None -> Alcotest.fail "manifest missing from schema-2 file"
    | Some m ->
      Alcotest.(check (option int)) "manifest seed" (Some 7) m.Telemetry.Manifest.seed;
      Alcotest.(check string) "manifest engine hash"
        (Telemetry.Manifest.engine_hash ()) m.Telemetry.Manifest.engine_hash)

let fixed_manifest =
  {
    Telemetry.Manifest.schema = 1;
    argv = [ "repro"; "faults"; "--seed"; "42"; "tab\there \"q\" \\ \x01" ];
    seed = Some 42;
    engine_hash = "0123456789abcdef0123456789abcdef";
    config_digest = "fedcba9876543210fedcba9876543210";
    ocaml_version = "5.1.1";
    hostname = "host";
    start_ns = 1786225332526600960L;
    end_ns = Some 1786225332526612992L;
    exit_status = Some 0;
  }

let test_nan_roundtrip () =
  with_temp_file @@ fun path ->
  Bench_json.write ~path ~manifest:fixed_manifest
    [
      { Bench_json.name = "zeta:k"; ns_per_run = 1234.56789; minor_words_per_run = 0.0 };
      { Bench_json.name = "flaky"; ns_per_run = nan; minor_words_per_run = infinity };
    ];
  (* bench-kernels/2, byte for byte: the indented layout, "%.3f"
     numbers, non-finite numbers as null. *)
  Alcotest.(check string) "file bytes pinned"
    ({|{
  "schema": "bench-kernels/2",
  "manifest": {"type":"manifest","schema":1,"argv":["repro","faults","--seed","42","tab\there \"q\" \\ \u0001"],"seed":42,"engine_hash":"0123456789abcdef0123456789abcdef","config_digest":"fedcba9876543210fedcba9876543210","ocaml_version":"5.1.1","hostname":"host","start_ns":1786225332526600960,"end_ns":1786225332526612992,"exit_status":0},
  "results": [
    { "name": "flaky", "ns_per_run": null, "minor_words_per_run": null },
    { "name": "zeta:k", "ns_per_run": 1234.568, "minor_words_per_run": 0.000 }
  ]
}|}
    ^ "\n")
    (In_channel.with_open_bin path In_channel.input_all);
  match Bench_json.read path with
  | Error reason -> Alcotest.fail reason
  | Ok file ->
    let k = List.hd file.Bench_json.kernels in
    Alcotest.(check bool) "nan survives as nan (null)" true (Float.is_nan k.Bench_json.ns_per_run);
    Alcotest.(check bool) "manifest decodes in place" true
      (file.Bench_json.manifest = Some fixed_manifest)

let valid_bench_file =
  lazy
    (with_temp_file @@ fun path ->
     Bench_json.write ~path ~manifest:fixed_manifest
       ({ Bench_json.name = "flaky"; ns_per_run = nan; minor_words_per_run = 1.0 } :: kernels);
     In_channel.with_open_bin path In_channel.input_all)

let test_rejects_garbage () =
  List.iter
    (fun (what, text) ->
      match Bench_json.of_string text with
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | Error _ -> ())
    [
      ("unknown schema", {|{"schema":"bench-kernels/9","kernels":[]}|});
      (* The seed's schema-1 files are no longer read. *)
      ( "schema-1 file",
        {|{"schema":"bench-kernels/1","results":[{"name":"fft:1024","ns_per_run":24000.0,"minor_words_per_run":128.0}]}|}
      );
      ("garbage", "not json");
    ]

(* ------------------------------------------------------------ gate *)

let baseline =
  [
    { Bench_json.name = "fft:1024"; ns_per_run = 10000.0; minor_words_per_run = 100.0 };
    { Bench_json.name = "sdm:loop"; ns_per_run = 500000.0; minor_words_per_run = 0.0 };
  ]

let verdicts comparisons =
  List.map (fun c -> (c.Bench_json.kernel, c.Bench_json.verdict)) comparisons

let test_gate_pass () =
  let current =
    [
      (* Within 2x on time, within 1.25x + slack on allocation. *)
      { Bench_json.name = "fft:1024"; ns_per_run = 15000.0; minor_words_per_run = 120.0 };
      { Bench_json.name = "sdm:loop"; ns_per_run = 400000.0; minor_words_per_run = 10.0 };
      (* A kernel the baseline has never seen passes silently. *)
      { Bench_json.name = "brand:new"; ns_per_run = 1.0; minor_words_per_run = 1e9 };
    ]
  in
  let cs = Bench_json.compare_results ~baseline ~current ~require_all:true in
  Alcotest.(check int) "one comparison per baseline kernel" 2 (List.length cs);
  Alcotest.(check int) "no regressions" 0 (List.length (Bench_json.regressions cs))

let test_gate_ns_regression () =
  let current =
    [
      { Bench_json.name = "fft:1024"; ns_per_run = 25000.0; minor_words_per_run = 100.0 };
      { Bench_json.name = "sdm:loop"; ns_per_run = 500000.0; minor_words_per_run = 0.0 };
    ]
  in
  let cs = Bench_json.compare_results ~baseline ~current ~require_all:true in
  match verdicts (Bench_json.regressions cs) with
  | [ ("fft:1024", Bench_json.Regressed r) ] ->
    Alcotest.(check string) "time field" "ns_per_run" r.field;
    Alcotest.(check (float 1e-9)) "limit is baseline * ratio" 20000.0 r.limit;
    Alcotest.(check (float 1e-9)) "current recorded" 25000.0 r.current
  | _ -> Alcotest.fail "expected exactly one ns regression on fft:1024"

let test_gate_mwd_regression () =
  let current =
    [
      { Bench_json.name = "fft:1024"; ns_per_run = 10000.0; minor_words_per_run = 300.0 };
      { Bench_json.name = "sdm:loop"; ns_per_run = 500000.0; minor_words_per_run = 100.0 };
    ]
  in
  let cs = Bench_json.compare_results ~baseline ~current ~require_all:true in
  (* fft: 300 > 100 * 1.25 + 128 = 253 → regressed.
     sdm: 100 <= 0 * 1.25 + 128 → the absolute slack covers it. *)
  match verdicts (Bench_json.regressions cs) with
  | [ ("fft:1024", Bench_json.Regressed r) ] ->
    Alcotest.(check string) "allocation field" "minor_words_per_run" r.field
  | _ -> Alcotest.fail "expected exactly one mwd regression on fft:1024"

let test_gate_missing () =
  let current =
    [ { Bench_json.name = "fft:1024"; ns_per_run = 10000.0; minor_words_per_run = 100.0 } ]
  in
  (* Full-suite gate: a vanished kernel is a failure. *)
  let full = Bench_json.compare_results ~baseline ~current ~require_all:true in
  (match verdicts (Bench_json.regressions full) with
  | [ ("sdm:loop", Bench_json.Missing) ] -> ()
  | _ -> Alcotest.fail "expected sdm:loop Missing under require_all");
  (* --only run: absent kernels are expected, not failures. *)
  let partial = Bench_json.compare_results ~baseline ~current ~require_all:false in
  Alcotest.(check int) "no regressions without require_all" 0
    (List.length (Bench_json.regressions partial))

let test_gate_noisy_tolerance () =
  (* Sub-microsecond kernels get the wider ratio. *)
  let t = Bench_json.tolerance_for "telemetry:span-disabled" in
  Alcotest.(check bool) "noisy kernel widened" true
    (t.Bench_json.ns_ratio > Bench_json.default_tolerance.Bench_json.ns_ratio);
  let t' = Bench_json.tolerance_for "fft:1024" in
  Alcotest.(check (float 1e-9)) "regular kernel default"
    Bench_json.default_tolerance.Bench_json.ns_ratio t'.Bench_json.ns_ratio;
  (* nan baselines never fire the gate. *)
  let cs =
    Bench_json.compare_results
      ~baseline:[ { Bench_json.name = "flaky"; ns_per_run = nan; minor_words_per_run = nan } ]
      ~current:[ { Bench_json.name = "flaky"; ns_per_run = 1e9; minor_words_per_run = 1e9 } ]
      ~require_all:true
  in
  Alcotest.(check int) "nan baseline passes" 0 (List.length (Bench_json.regressions cs))

(* The committed baseline must carry every absolute budget, each within
   it, so a retirement or re-baseline cannot silently drop or break one. *)
let test_committed_budgets () =
  match Bench_json.read "../BENCH_4.json" with
  | Error reason -> Alcotest.fail ("BENCH_4.json does not read: " ^ reason)
  | Ok file ->
    let budgeted = Bench_json.check_budgets file.Bench_json.kernels in
    Alcotest.(check int) "every budgeted kernel present" 6 (List.length budgeted);
    Alcotest.(check (list string)) "every budget holds" []
      (List.map Bench_json.verdict_to_string (Bench_json.regressions budgeted))

let () =
  Alcotest.run "benchkit"
    [
      ( "format",
        [
          Alcotest.test_case "schema-2 round-trip with manifest" `Quick test_v2_roundtrip;
          Alcotest.test_case "nan encodes as null and survives" `Quick test_nan_roundtrip;
          Alcotest.test_case "unknown schema and garbage rejected" `Quick test_rejects_garbage;
        ]
        @ Mutate.cases ~what:"bench-kernels/2" ~count:2000 valid_bench_file Bench_json.of_string );
      ( "gate",
        [
          Alcotest.test_case "within tolerance passes" `Quick test_gate_pass;
          Alcotest.test_case "time blowup regresses" `Quick test_gate_ns_regression;
          Alcotest.test_case "allocation blowup regresses" `Quick test_gate_mwd_regression;
          Alcotest.test_case "vanished kernel under require_all" `Quick test_gate_missing;
          Alcotest.test_case "noisy and nan tolerances" `Quick test_gate_noisy_tolerance;
          Alcotest.test_case "committed baseline carries every budget" `Quick
            test_committed_budgets;
        ] );
    ]
