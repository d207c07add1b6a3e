(* Tests for the telemetry subsystem: span nesting and self-time
   attribution, counter/histogram registry semantics, exporter
   well-formedness (we parse what we emit), the disabled-mode no-op
   guarantee, and counter determinism across same-seed runs. *)

(* Exporter output is checked by parsing it back with the codec. *)
module Json = Telemetry.Json

let parse_json s =
  match Json.of_string s with
  | Ok v -> v
  | Error reason -> Alcotest.failf "invalid JSON (%s): %s" reason s

let member = Json.member
let num v = Option.bind v Json.to_float

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------ codec *)

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_bound 24))

let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map Json.int int;
        map Json.int64 int64;
        map Json.float float;
        map (Json.fixed 3) float;
        map (fun s -> Json.String s) gen_bytes;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair gen_bytes (self (n / 4)))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"of_string inverts to_string on nested values"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let prop_json_bytes =
  QCheck.Test.make ~count:1000 ~name:"arbitrary byte strings round-trip"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_bytes)
    (fun s -> Json.of_string (Json.to_string (Json.String s)) = Ok (Json.String s))

let prop_json_total =
  QCheck.Test.make ~count:2000 ~name:"of_string never raises"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(oneofl [ '{'; '}'; '['; ']'; '"'; '\\'; 'u'; ':'; ','; '-'; '0'; '1'; 'e'; '.'; 'n'; ' '; '\x01'; '\xff' ]) (int_bound 32)))
    (fun s -> match Json.of_string s with Ok _ | Error _ -> true)

let gen_float =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits int64;
        oneofl
          [
            nan; -.nan; Int64.float_of_bits 0x7ff0000000000001L; Int64.float_of_bits 0xfff4000000000abcL;
            infinity; neg_infinity; 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308;
          ];
      ])

let prop_float_repr =
  QCheck.Test.make ~count:2000 ~name:"hex floats round-trip bit-for-bit"
    (QCheck.make ~print:Json.float_repr gen_float)
    (fun x ->
      Option.map Int64.bits_of_float (Json.float_of_repr (Json.float_repr x))
      = Some (Int64.bits_of_float x))

let test_json_parser_edges () =
  let ok s = Result.is_ok (Json.of_string s) in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (ok s))
    [ ""; "-"; "01"; "1."; ".5"; "+1"; "1e"; "[1,]"; "{\"a\"}"; "\"\\ud800\""; "\"\x01\""; "nul"; "1 2" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (ok s))
    [ " 1 "; "-0.5e+3"; "[]"; "{}"; "\"\\/\\b\\f\""; "[{\"a\":[null,true,false]}]" ];
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (Json.of_string {|"\u00e9\ud83d\ude00"|} = Ok (Json.String "\xc3\xa9\xf0\x9f\x98\x80"));
  Alcotest.(check bool) "deep nesting is an error, not a stack overflow" false
    (ok (String.make 100_000 '['));
  Alcotest.(check (option int64)) "int64 literals stay exact" (Some 1786225332526600961L)
    (Option.bind (Result.to_option (Json.of_string "1786225332526600961")) Json.to_int64);
  Alcotest.(check (option int)) "overflowing int is None" None
    (Option.bind (Result.to_option (Json.of_string "99999999999999999999")) Json.to_int)

(* ----------------------------------------------------------- spans *)

(* Deterministic busy work so spans have a measurable, positive
   duration without sleeping. *)
let burn () =
  let acc = ref 0.0 in
  for i = 1 to 20_000 do
    acc := !acc +. sin (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* Spans record only while the master switch is on; the suite runs
   with it off. *)
let with_spans f =
  Telemetry.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Control.set_enabled false) f

let find_agg name =
  List.find_opt (fun a -> a.Telemetry.Span.agg_name = name) (Telemetry.Span.aggregates ())

let test_span_nesting_self_time () =
  Telemetry.Export.reset_all ();
  with_spans (fun () ->
      Telemetry.Span.with_ ~name:"outer" (fun () ->
          burn ();
          Telemetry.Span.with_ ~name:"child" burn;
          Telemetry.Span.with_ ~name:"child" burn));
  let outer = Option.get (find_agg "outer") in
  let child = Option.get (find_agg "child") in
  Alcotest.(check int) "outer calls" 1 outer.Telemetry.Span.agg_calls;
  Alcotest.(check int) "child calls" 2 child.Telemetry.Span.agg_calls;
  let open Int64 in
  if compare outer.Telemetry.Span.agg_total_ns child.Telemetry.Span.agg_total_ns < 0 then
    Alcotest.fail "outer total must cover children";
  if compare outer.Telemetry.Span.agg_self_ns 0L < 0 then Alcotest.fail "negative self time";
  (* Self-time attribution: outer self = outer total minus the time in
     its (only) children. *)
  let expected_self = sub outer.Telemetry.Span.agg_total_ns child.Telemetry.Span.agg_total_ns in
  Alcotest.(check int64) "outer self excludes children" expected_self
    outer.Telemetry.Span.agg_self_ns;
  (* Events: children complete first, depth tracks nesting. *)
  (match Telemetry.Span.events () with
  | [ e1; e2; e3 ] ->
    Alcotest.(check string) "first completion" "child" e1.Telemetry.Span.ev_name;
    Alcotest.(check int) "child depth" 1 e1.Telemetry.Span.ev_depth;
    Alcotest.(check string) "last completion" "outer" e3.Telemetry.Span.ev_name;
    Alcotest.(check int) "outer depth" 0 e3.Telemetry.Span.ev_depth;
    Alcotest.(check int) "middle depth" 1 e2.Telemetry.Span.ev_depth
  | events -> Alcotest.failf "expected 3 events, got %d" (List.length events));
  Telemetry.Export.reset_all ()

let test_span_exception_safe () =
  Telemetry.Export.reset_all ();
  with_spans (fun () ->
      match Telemetry.Span.with_ ~name:"boom" (fun () -> failwith "inner") with
      | _ -> Alcotest.fail "expected the exception to propagate"
      | exception Failure m -> Alcotest.(check string) "exception carried" "inner" m);
  (match find_agg "boom" with
  | Some a -> Alcotest.(check int) "raising span still recorded" 1 a.Telemetry.Span.agg_calls
  | None -> Alcotest.fail "raising span lost");
  Telemetry.Export.reset_all ()

let test_span_disabled_noop () =
  Telemetry.Export.reset_all ();
  Telemetry.Control.set_enabled false;
  let r = Telemetry.Span.with_ ~name:"ghost" (fun () -> 17) in
  Alcotest.(check int) "value passes through" 17 r;
  Alcotest.(check int) "no events recorded" 0 (List.length (Telemetry.Span.events ()));
  Alcotest.(check bool) "no aggregate recorded" true (find_agg "ghost" = None);
  (* Exceptions still propagate untouched when disabled. *)
  (match Telemetry.Span.with_ ~name:"ghost" (fun () -> raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Alcotest.(check int) "still no events" 0 (List.length (Telemetry.Span.events ()))

(* ---------------------------------------------- counters/histograms *)

let test_counter_registry () =
  Telemetry.Export.reset_all ();
  let a = Telemetry.Counter.make "test.alpha" in
  let a' = Telemetry.Counter.make "test.alpha" in
  Telemetry.Counter.incr a;
  Telemetry.Counter.add a' 4;
  Alcotest.(check int) "make is idempotent (same cell)" 5 (Telemetry.Counter.value a);
  (match Telemetry.Counter.find "test.alpha" with
  | Some c -> Alcotest.(check int) "find sees the value" 5 (Telemetry.Counter.value c)
  | None -> Alcotest.fail "registered counter not found");
  Alcotest.(check bool) "find does not create" true (Telemetry.Counter.find "test.absent" = None);
  let snap = Telemetry.Counter.snapshot () in
  Alcotest.(check (option int)) "snapshot carries the value" (Some 5)
    (List.assoc_opt "test.alpha" snap);
  let sorted = List.sort (fun (x, _) (y, _) -> compare x y) snap in
  Alcotest.(check bool) "snapshot is name-sorted" true (snap = sorted);
  Telemetry.Counter.reset_all ();
  Alcotest.(check int) "reset_all zeroes" 0 (Telemetry.Counter.value a);
  Alcotest.(check bool) "registration survives reset" true
    (List.mem_assoc "test.alpha" (Telemetry.Counter.snapshot ()))

let test_histogram_observe () =
  Telemetry.Export.reset_all ();
  let h = Telemetry.Histogram.make "test.hist" in
  (* Read back through the registry snapshot the exporters print. *)
  let summary () =
    List.find
      (fun s -> s.Telemetry.Histogram.h_name = "test.hist")
      (Telemetry.Histogram.snapshot ())
  in
  List.iter (Telemetry.Histogram.observe h) [ 1.0; 2.0; 4.0; 8.0; 1000.0 ];
  let s = summary () in
  Alcotest.(check int) "count" 5 s.Telemetry.Histogram.h_count;
  Alcotest.(check (float 1e-9)) "sum" 1015.0 s.Telemetry.Histogram.h_sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Telemetry.Histogram.h_min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 s.Telemetry.Histogram.h_max;
  let p50 = Telemetry.Histogram.quantile h 0.5 in
  if p50 < 1.0 || p50 > 1000.0 then Alcotest.failf "p50 out of [min,max]: %g" p50;
  (* Log-bucket quantile error is bounded by the 2^(1/4) bucket ratio:
     the true median is 4. *)
  if p50 < 3.0 || p50 > 5.5 then Alcotest.failf "p50 far from true median 4: %g" p50;
  (* A NaN observation is counted but cannot poison the quantiles. *)
  Telemetry.Histogram.observe h Float.nan;
  Alcotest.(check int) "nan counted" 6 (summary ()).Telemetry.Histogram.h_count;
  let p99 = Telemetry.Histogram.quantile h 0.99 in
  if Float.is_nan p99 then Alcotest.fail "nan leaked into quantile";
  Telemetry.Histogram.reset_all ();
  Alcotest.(check int) "reset_all empties" 0 (summary ()).Telemetry.Histogram.h_count

(* -------------------------------------------------------- exporters *)

let populate_sample_telemetry () =
  Telemetry.Export.reset_all ();
  let c = Telemetry.Counter.make "test.export_counter" in
  Telemetry.Counter.add c 3;
  let h = Telemetry.Histogram.make "test.export_hist" in
  Telemetry.Histogram.observe h 42.0;
  with_spans (fun () ->
      Telemetry.Span.with_ ~name:"export outer \"quoted\"" (fun () ->
          burn ();
          Telemetry.Span.with_ ~name:"export child" ~attrs:[ ("k", "v\nw") ] burn))

let test_chrome_trace_well_formed () =
  populate_sample_telemetry ();
  let parsed = parse_json (Telemetry.Export.chrome_trace_string ()) in
  (match member "displayTimeUnit" parsed with
  | Some (String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let events =
    match member "traceEvents" parsed with
    | Some (List events) -> events
    | _ -> Alcotest.fail "traceEvents missing"
  in
  (* 2 span events + the final instant event carrying the counters. *)
  Alcotest.(check int) "event count" 3 (List.length events);
  let phases =
    List.map
      (fun e -> match member "ph" e with Some (String p) -> p | _ -> Alcotest.fail "ph missing")
      events
  in
  Alcotest.(check (list string)) "phases" [ "X"; "X"; "I" ] phases;
  List.iter
    (fun e ->
      match (member "ph" e, num (member "ts" e), member "name" e) with
      | Some (String "X"), Some ts, Some (String _) ->
        if ts < 0.0 then Alcotest.fail "negative ts";
        (match num (member "dur" e) with
        | Some d when d >= 0.0 -> ()
        | _ -> Alcotest.fail "X event without dur")
      | Some (String "I"), Some _, Some (String _) -> ()
      | _ -> Alcotest.fail "malformed event")
    events;
  (* The escaped span name survives the round trip. *)
  let names =
    List.filter_map (fun e -> match member "name" e with Some (String s) -> Some s | _ -> None) events
  in
  Alcotest.(check bool) "quoted name round-trips" true
    (List.mem "export outer \"quoted\"" names);
  (* The child's event, byte for byte. *)
  let child = List.find (fun e -> e.Telemetry.Span.ev_name = "export child") (Telemetry.Span.events ()) in
  let pinned =
    Printf.sprintf
      {|{"name":"export child","cat":"span","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"k":"v\nw"}}|}
      (Int64.to_float (Int64.sub child.Telemetry.Span.ev_start_ns (Telemetry.Span.epoch_ns ())) /. 1e3)
      (Int64.to_float child.Telemetry.Span.ev_dur_ns /. 1e3)
  in
  Alcotest.(check bool) "child event bytes pinned" true
    (contains ~sub:pinned (Telemetry.Export.chrome_trace_string ()));
  Telemetry.Export.reset_all ()

let test_jsonl_well_formed () =
  populate_sample_telemetry ();
  let lines =
    String.split_on_char '\n' (String.trim (Telemetry.Export.jsonl_string ()))
  in
  Alcotest.(check bool) "has lines" true (List.length lines >= 4);
  let typed =
    List.map
      (fun line ->
        let v = parse_json line in
        match member "type" v with
        | Some (String t) -> (t, v)
        | _ -> Alcotest.failf "line without type: %s" line)
      lines
  in
  let spans = List.filter (fun (t, _) -> t = "span") typed in
  Alcotest.(check int) "span lines" 2 (List.length spans);
  Alcotest.(check bool) "counter line present" true
    (List.exists
       (fun (t, v) ->
         t = "counter" && member "name" v = Some (String "test.export_counter")
         && member "value" v = Some (Json.int 3))
       typed);
  Alcotest.(check bool) "histogram line present" true
    (List.exists
       (fun (t, v) -> t = "histogram" && member "name" v = Some (String "test.export_hist"))
       typed);
  (* The newline embedded in an attr value must be escaped, or it would
     have split the line and failed parsing above. *)
  Alcotest.(check bool) "attr newline escaped" true
    (List.exists
       (fun (_, v) ->
         match member "attrs" v with Some (Obj [ ("k", String "v\nw") ]) -> true | _ -> false)
       (List.filter (fun (t, _) -> t = "span") typed));
  (* The child's span line, byte for byte. *)
  let child = List.find (fun e -> e.Telemetry.Span.ev_name = "export child") (Telemetry.Span.events ()) in
  Alcotest.(check bool) "span line bytes pinned" true
    (List.mem
       (Printf.sprintf
          {|{"type":"span","name":"export child","start_ns":%Ld,"dur_ns":%Ld,"depth":1,"attrs":{"k":"v\nw"}}|}
          child.Telemetry.Span.ev_start_ns child.Telemetry.Span.ev_dur_ns)
       lines);
  Telemetry.Export.reset_all ()

(* ------------------------------------------------------ determinism *)

(* The always-on counters must be a pure function of the workload and
   seed: two identical runs leave identical snapshots.  This is what
   makes the security table's oracle-query column reproducible. *)
let test_counter_determinism () =
  let workload () =
    Telemetry.Export.reset_all ();
    let chip = Circuit.Process.fabricate ~seed:4242 () in
    let rx = Rfchain.Receiver.create chip Rfchain.Standards.max_frequency in
    let bench = Metrics.Measure.create rx in
    ignore (Metrics.Measure.snr_mod_db bench Rfchain.Config.nominal);
    ignore (Metrics.Measure.sfdr_db bench Rfchain.Config.nominal);
    Telemetry.Counter.snapshot ()
  in
  let first = workload () in
  let second = workload () in
  Alcotest.(check (list (pair string int))) "same-seed runs leave identical counters" first
    second;
  Alcotest.(check bool) "workload actually counted something" true
    (List.exists (fun (_, v) -> v > 0) first);
  Telemetry.Export.reset_all ()

(* ----------------------------------------------------- cancellation *)

(* Raise-or-not of one poll, as the reason it raised with. *)
let poll_outcome () =
  match Telemetry.Cancel.poll () with
  | () -> None
  | exception Telemetry.Cancel.Cancelled reason -> Some reason

let tripped = Some Telemetry.Cancel.deadline_reason

let test_cancel_scoped_token () =
  let expired = Telemetry.Cancel.with_deadline 0.0 in
  Alcotest.(check (option string)) "no token, no cancellation" None (poll_outcome ());
  Telemetry.Cancel.with_token expired (fun () ->
      Alcotest.(check (option string)) "a tripped token raises at the next poll" tripped
        (poll_outcome ()));
  (* leaving the scope uninstalls the token *)
  Alcotest.(check (option string)) "no token outside the scope" None (poll_outcome ())

let test_cancel_deadline_token () =
  let expired = Telemetry.Cancel.with_deadline 0.0 in
  Alcotest.(check bool) "zero deadline trips immediately" true
    (Telemetry.Cancel.is_set expired);
  let far = Telemetry.Cancel.with_deadline 3600.0 in
  Alcotest.(check bool) "future deadline untripped" false (Telemetry.Cancel.is_set far);
  Telemetry.Cancel.with_token far (fun () ->
      Alcotest.(check (option string)) "an untripped token is silent" None (poll_outcome ()))

let test_cancel_nesting_restores () =
  let expired = Telemetry.Cancel.with_deadline 0.0 in
  let far = Telemetry.Cancel.with_deadline 3600.0 in
  Telemetry.Cancel.with_token expired (fun () ->
      Telemetry.Cancel.with_token far (fun () ->
          Alcotest.(check (option string)) "innermost wins" None (poll_outcome ()));
      (* even when the inner scope exits via an exception *)
      (match Telemetry.Cancel.with_token far (fun () -> raise Exit) with
      | () -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      Alcotest.(check (option string)) "outer restored" tripped (poll_outcome ()));
  Telemetry.Cancel.with_token far (fun () ->
      Telemetry.Cancel.with_token expired (fun () ->
          Alcotest.(check (option string)) "a tripped inner token raises" tripped
            (poll_outcome ()));
      Alcotest.(check (option string)) "untripped outer restored" None (poll_outcome ()))

let test_cancel_interrupt () =
  Fun.protect ~finally:Telemetry.Cancel.clear_interrupt (fun () ->
      Telemetry.Cancel.interrupt ~reason:"SIGINT" ();
      (match Telemetry.Cancel.poll () with
      | () -> Alcotest.fail "a pending interrupt must raise"
      | exception Telemetry.Cancel.Cancelled reason ->
        Alcotest.(check string) "interrupt reason" "SIGINT" reason));
  Alcotest.(check (option string)) "a cleared interrupt is silent" None (poll_outcome ())

(* -------------------------------------------------------------- log *)

let with_quiet_log f =
  let saved = Telemetry.Log.level () in
  Telemetry.Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Log.close_file ();
      Telemetry.Log.set_stderr true;
      Telemetry.Log.set_level saved)
    f

let test_log_level_filtering () =
  with_quiet_log @@ fun () ->
  let path = Filename.temp_file "test_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Telemetry.Log.to_file path;
  Telemetry.Log.set_level Telemetry.Log.Warn;
  Telemetry.Log.debug "dropped debug";
  Telemetry.Log.info "dropped info";
  Telemetry.Log.warn "kept warn";
  Telemetry.Log.error "kept error";
  Telemetry.Log.set_level Telemetry.Log.Debug;
  Telemetry.Log.debug "kept debug";
  Telemetry.Log.close_file ();
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "only enabled levels emit" 3 (List.length lines);
  let msgs =
    List.map
      (fun l ->
        match member "msg" (parse_json l) with
        | Some (String m) -> m
        | _ -> Alcotest.fail "log line missing msg")
      lines
  in
  Alcotest.(check (list string)) "order preserved"
    [ "kept warn"; "kept error"; "kept debug" ]
    msgs;
  Alcotest.(check bool) "enabled guard matches threshold" true
    (Telemetry.Log.enabled Telemetry.Log.Debug)

let test_log_jsonl_escaping () =
  with_quiet_log @@ fun () ->
  let path = Filename.temp_file "test_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Telemetry.Log.to_file path;
  Telemetry.Log.set_level Telemetry.Log.Info;
  Telemetry.Log.info
    ~fields:[ ("key", "line1\nline2\t\"quoted\" \\slash"); ("n", "42") ]
    "msg with \"quotes\" and \x01 control";
  Telemetry.Log.close_file ();
  let raw = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  match Json.of_string raw with
  | Error reason -> Alcotest.fail ("jsonl line does not parse: " ^ reason)
  | Ok v ->
    (match member "msg" v with
    | Some (String m) ->
      Alcotest.(check string) "message round-trips" "msg with \"quotes\" and \x01 control" m
    | _ -> Alcotest.fail "msg missing");
    (match member "fields" v with
    | Some (Obj fields) ->
      Alcotest.(check bool) "field value round-trips" true
        (List.assoc_opt "key" fields = Some (String "line1\nline2\t\"quoted\" \\slash"))
    | _ -> Alcotest.fail "fields missing");
    (match member "level" v with
    | Some (String "info") -> ()
    | _ -> Alcotest.fail "level missing");
    (* Everything after the timestamp, byte for byte. *)
    Alcotest.(check bool) "line bytes pinned" true
      (String.ends_with raw
         ~suffix:
           {|,"level":"info","msg":"msg with \"quotes\" and \u0001 control","fields":{"key":"line1\nline2\t\"quoted\" \\slash","n":"42"}}|})

(* --------------------------------------------------------- manifest *)

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

let test_manifest_roundtrip () =
  let argv = [ "repro"; "faults"; "--seed"; "1234"; "--standard"; "blue\ttooth" ] in
  let m = Telemetry.Manifest.create ~argv () in
  Telemetry.Manifest.finish ~exit_status:3 m;
  (match Telemetry.Manifest.of_json (Telemetry.Manifest.to_json m) with
  | Error reason -> Alcotest.fail ("manifest does not round-trip: " ^ reason)
  | Ok m' ->
    Alcotest.(check (list string)) "argv" argv m'.Telemetry.Manifest.argv;
    Alcotest.(check (option int)) "seed parsed from argv" (Some 1234) m'.Telemetry.Manifest.seed;
    Alcotest.(check string) "engine hash" m.Telemetry.Manifest.engine_hash
      m'.Telemetry.Manifest.engine_hash;
    Alcotest.(check (option int)) "exit status" (Some 3) m'.Telemetry.Manifest.exit_status;
    Alcotest.(check bool) "end stamped" true (m'.Telemetry.Manifest.end_ns <> None);
    Alcotest.(check string) "config digest" m.Telemetry.Manifest.config_digest
      m'.Telemetry.Manifest.config_digest);
  (* The encoding, byte for byte, with and without the optional fields. *)
  Alcotest.(check string) "manifest bytes pinned"
    {|{"type":"manifest","schema":1,"argv":["repro","faults","--seed","42","tab\there \"q\" \\ \u0001"],"seed":42,"engine_hash":"0123456789abcdef0123456789abcdef","config_digest":"fedcba9876543210fedcba9876543210","ocaml_version":"5.1.1","hostname":"host","start_ns":1786225332526600960,"end_ns":1786225332526612992,"exit_status":0}|}
    (Json.to_string (Telemetry.Manifest.to_json fixed_manifest));
  Alcotest.(check string) "unset fields pinned"
    {|{"type":"manifest","schema":1,"argv":[],"seed":null,"engine_hash":"0123456789abcdef0123456789abcdef","config_digest":"fedcba9876543210fedcba9876543210","ocaml_version":"5.1.1","hostname":"host","start_ns":-5,"end_ns":null,"exit_status":null}|}
    (Json.to_string
       (Telemetry.Manifest.to_json
          { fixed_manifest with argv = []; seed = None; start_ns = -5L; end_ns = None; exit_status = None }));
  (* File round-trip. *)
  let path = Filename.temp_file "test_manifest" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Telemetry.Manifest.write path m;
  match Telemetry.Manifest.read path with
  | Error reason -> Alcotest.fail ("manifest file does not read back: " ^ reason)
  | Ok m' ->
    Alcotest.(check string) "file round-trip argv digest" m.Telemetry.Manifest.config_digest
      m'.Telemetry.Manifest.config_digest

let test_manifest_seed_forms () =
  let seed_of argv =
    (Telemetry.Manifest.create ~argv ()).Telemetry.Manifest.seed
  in
  Alcotest.(check (option int)) "--seed N" (Some 7) (seed_of [ "x"; "--seed"; "7" ]);
  Alcotest.(check (option int)) "--seed=N" (Some 9) (seed_of [ "x"; "--seed=9" ]);
  Alcotest.(check (option int)) "no seed" None (seed_of [ "x"; "--jobs"; "4" ]);
  Alcotest.(check (option int)) "explicit overrides" (Some 5)
    (Telemetry.Manifest.create ~argv:[ "x"; "--seed"; "7" ] ~seed:5 ()).Telemetry.Manifest.seed;
  (* The engine hash is a hex digest of the running executable. *)
  let h = Telemetry.Manifest.engine_hash () in
  Alcotest.(check bool) "engine hash is hex" true
    (String.length h = 32
    && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) h)

let () =
  Alcotest.run "telemetry"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and self time" `Quick test_span_nesting_self_time;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled mode is a no-op" `Quick test_span_disabled_noop;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter make/find/snapshot/reset" `Quick test_counter_registry;
          Alcotest.test_case "histogram observe/quantile/reset" `Quick test_histogram_observe;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace is valid JSON" `Quick test_chrome_trace_well_formed;
          Alcotest.test_case "jsonl stream is valid JSON" `Quick test_jsonl_well_formed;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same-seed counter snapshots" `Quick test_counter_determinism ] );
      ( "cancel",
        [
          Alcotest.test_case "scoped token trips at the next poll" `Quick
            test_cancel_scoped_token;
          Alcotest.test_case "deadline tokens" `Quick test_cancel_deadline_token;
          Alcotest.test_case "nesting restores the outer token" `Quick
            test_cancel_nesting_restores;
          Alcotest.test_case "process-global interrupt" `Quick
            test_cancel_interrupt;
        ] );
      ( "log",
        [
          Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
          Alcotest.test_case "jsonl sink escaping" `Quick test_log_jsonl_escaping;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "json and file round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "seed parsing and engine hash" `Quick test_manifest_seed_forms;
        ]
        @ Mutate.cases ~what:"manifest" ~count:2000
            (lazy (Json.to_string (Telemetry.Manifest.to_json fixed_manifest)))
            (fun s -> Result.bind (Json.of_string s) Telemetry.Manifest.of_json) );
      ( "json",
        Alcotest.test_case "parser edge cases" `Quick test_json_parser_edges
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_json_roundtrip; prop_json_bytes; prop_json_total; prop_float_repr ] );
    ]
