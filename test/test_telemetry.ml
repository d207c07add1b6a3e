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

let find_agg name =
  List.find_opt (fun a -> a.Telemetry.Span.agg_name = name) (Telemetry.Span.aggregates ())

let test_span_nesting_self_time () =
  Telemetry.Export.reset_all ();
  Telemetry.Control.with_enabled true (fun () ->
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
  Telemetry.Control.with_enabled true (fun () ->
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
  List.iter (Telemetry.Histogram.observe h) [ 1.0; 2.0; 4.0; 8.0; 1000.0 ];
  Alcotest.(check int) "count" 5 (Telemetry.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1015.0 (Telemetry.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Telemetry.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 1000.0 (Telemetry.Histogram.max_value h);
  let p50 = Telemetry.Histogram.quantile h 0.5 in
  if p50 < 1.0 || p50 > 1000.0 then Alcotest.failf "p50 out of [min,max]: %g" p50;
  (* Log-bucket quantile error is bounded by the 2^(1/4) bucket ratio:
     the true median is 4. *)
  if p50 < 3.0 || p50 > 5.5 then Alcotest.failf "p50 far from true median 4: %g" p50;
  (* A NaN observation is counted but cannot poison the quantiles. *)
  Telemetry.Histogram.observe h Float.nan;
  Alcotest.(check int) "nan counted" 6 (Telemetry.Histogram.count h);
  let p99 = Telemetry.Histogram.quantile h 0.99 in
  if Float.is_nan p99 then Alcotest.fail "nan leaked into quantile";
  Telemetry.Histogram.reset_all ();
  Alcotest.(check int) "reset_all empties" 0 (Telemetry.Histogram.count h)

(* -------------------------------------------------------- exporters *)

let populate_sample_telemetry () =
  Telemetry.Export.reset_all ();
  let c = Telemetry.Counter.make "test.export_counter" in
  Telemetry.Counter.add c 3;
  let h = Telemetry.Histogram.make "test.export_hist" in
  Telemetry.Histogram.observe h 42.0;
  Telemetry.Control.with_enabled true (fun () ->
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
  Alcotest.(check (float 0.0)) "nothing remains of a tripped deadline" 0.0
    (Telemetry.Cancel.remaining_s expired);
  let far = Telemetry.Cancel.with_deadline 3600.0 in
  Alcotest.(check bool) "future deadline untripped" false (Telemetry.Cancel.is_set far);
  Alcotest.(check bool) "remaining time positive" true (Telemetry.Cancel.remaining_s far > 0.0);
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
      Alcotest.(check bool) "interrupt pending" true (Telemetry.Cancel.interrupted ());
      (match Telemetry.Cancel.poll () with
      | () -> Alcotest.fail "a pending interrupt must raise"
      | exception Telemetry.Cancel.Cancelled reason ->
        Alcotest.(check string) "interrupt reason" "SIGINT" reason));
  Alcotest.(check bool) "interrupt cleared" false (Telemetry.Cancel.interrupted ());
  Telemetry.Cancel.poll ()

(* ------------------------------------------------------ openmetrics *)

(* Mini OpenMetrics text parser: enough to verify the exposition we
   emit is the exposition a scraper would accept.  Returns the sample
   lines as (name, labels-or-empty, value) plus the set of TYPE'd
   family names; fails on a line that is neither a comment nor a
   well-formed sample, or on a missing terminal "# EOF". *)
let parse_openmetrics body =
  let lines = String.split_on_char '\n' body in
  let rec strip_trailing = function
    | [ "" ] -> []
    | [] -> []
    | x :: rest -> x :: strip_trailing rest
  in
  let lines = strip_trailing lines in
  (match List.rev lines with
  | "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition must end with # EOF");
  let name_ok name =
    name <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
           || c = ':')
         name
  in
  let families = ref [] in
  let samples = ref [] in
  List.iter
    (fun line ->
      if line = "" || line = "# EOF" then ()
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (name_ok name) then Alcotest.fail ("bad family name: " ^ name);
          if not (List.mem kind [ "counter"; "gauge"; "summary"; "histogram" ]) then
            Alcotest.fail ("bad family type: " ^ kind);
          families := (name, kind) :: !families
        | _ -> Alcotest.fail ("bad TYPE line: " ^ line)
      end
      else if String.length line > 1 && line.[0] = '#' then () (* HELP *)
      else begin
        (* sample: name[{labels}] value *)
        match String.index_opt line ' ' with
        | None -> Alcotest.fail ("bad sample line: " ^ line)
        | Some sp ->
          let series = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          let name, labels =
            match String.index_opt series '{' with
            | None -> (series, "")
            | Some b ->
              if series.[String.length series - 1] <> '}' then
                Alcotest.fail ("unterminated labels: " ^ line);
              (String.sub series 0 b, String.sub series b (String.length series - b))
          in
          if not (name_ok name) then Alcotest.fail ("bad metric name: " ^ name);
          let v =
            match value with
            | "NaN" -> nan
            | "+Inf" -> infinity
            | "-Inf" -> neg_infinity
            | v -> (
              match float_of_string_opt v with
              | Some f -> f
              | None -> Alcotest.fail ("bad sample value: " ^ line))
          in
          samples := (name, labels, v) :: !samples
      end)
    lines;
  (List.rev !families, List.rev !samples)

let sample_value samples name =
  List.find_map (fun (n, _, v) -> if n = name then Some v else None) samples

let test_openmetrics_counters_histograms () =
  Telemetry.Export.reset_all ();
  let c = Telemetry.Counter.make "test.om_counter" in
  Telemetry.Counter.add c 41;
  Telemetry.Counter.incr c;
  let h = Telemetry.Histogram.make "test.om_hist" in
  List.iter (Telemetry.Histogram.observe h) [ 10.0; 20.0; 30.0; 40.0 ];
  let families, samples = parse_openmetrics (Telemetry.Openmetrics.render ()) in
  (* Counter: sanitised name, _total suffix, exact value. *)
  Alcotest.(check (option (float 0.0)))
    "counter value" (Some 42.0)
    (sample_value samples "repro_test_om_counter_total");
  Alcotest.(check bool)
    "counter family typed" true
    (List.mem ("repro_test_om_counter_total", "counter") families);
  (* Histogram: summary with exact count and sum, quantiles present. *)
  Alcotest.(check (option (float 0.0)))
    "histogram count" (Some 4.0)
    (sample_value samples "repro_test_om_hist_count");
  Alcotest.(check (option (float 0.0)))
    "histogram sum" (Some 100.0)
    (sample_value samples "repro_test_om_hist_sum");
  Alcotest.(check bool)
    "histogram family typed summary" true
    (List.mem ("repro_test_om_hist", "summary") families);
  Alcotest.(check bool)
    "quantile series present" true
    (List.exists (fun (n, l, _) -> n = "repro_test_om_hist" && l = "{quantile=\"0.5\"}") samples)

let test_openmetrics_gauges_and_escaping () =
  Telemetry.Export.reset_all ();
  let gauges =
    [
      Telemetry.Openmetrics.gauge ~help:"a help line" "my_gauge_seconds" 1.5;
      Telemetry.Openmetrics.gauge
        ~labels:[ ("die", "a\"b\\c\nd"); ("weird name", "v") ]
        "labelled gauge" 7.0;
    ]
  in
  let families, samples = parse_openmetrics (Telemetry.Openmetrics.render ~gauges ()) in
  Alcotest.(check (option (float 0.0)))
    "plain gauge" (Some 1.5)
    (sample_value samples "repro_my_gauge_seconds");
  (* Metric and label names sanitised to the charset; label values
     escaped per the grammar. *)
  (match
     List.find_opt (fun (n, _, _) -> n = "repro_labelled_gauge") samples
   with
  | Some (_, labels, v) ->
    Alcotest.(check (float 0.0)) "labelled gauge value" 7.0 v;
    Alcotest.(check string)
      "label escaping" "{die=\"a\\\"b\\\\c\\nd\",weird_name=\"v\"}" labels
  | None -> Alcotest.fail "labelled gauge missing");
  Alcotest.(check bool)
    "gauge family typed" true
    (List.mem ("repro_my_gauge_seconds", "gauge") families)

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

(* ---------------------------------------------------------- monitor *)

let test_monitor_snapshot () =
  Telemetry.Monitor.reset ();
  Telemetry.Monitor.register "test_provider" (fun () -> [ ("test_gauge", 17.0) ]);
  Fun.protect ~finally:(fun () ->
      Telemetry.Monitor.register "test_provider" (fun () -> []);
      Telemetry.Monitor.reset ())
  @@ fun () ->
  Telemetry.Monitor.set_progress ~completed:25 ~total:100;
  let s = Telemetry.Monitor.snapshot () in
  Alcotest.(check int) "completed" 25 s.Telemetry.Monitor.completed;
  Alcotest.(check int) "total" 100 s.Telemetry.Monitor.total;
  Alcotest.(check bool) "eta estimable" true (s.Telemetry.Monitor.eta_s <> None);
  Alcotest.(check bool) "provider gauges included" true
    (List.assoc_opt "test_gauge" s.Telemetry.Monitor.gauges = Some 17.0);
  (* The /metrics body is valid OpenMetrics and carries the snapshot. *)
  let _, samples = parse_openmetrics (Telemetry.Monitor.metrics_body ()) in
  Alcotest.(check (option (float 0.0)))
    "campaign progress exposed" (Some 25.0)
    (sample_value samples "repro_campaign_cells_completed");
  Alcotest.(check (option (float 0.0)))
    "provider gauge exposed" (Some 17.0)
    (sample_value samples "repro_test_gauge");
  (* The /healthz body is one valid JSON object. *)
  match Json.of_string (Telemetry.Monitor.healthz_body ()) with
  | Error reason -> Alcotest.fail ("healthz does not parse: " ^ reason)
  | Ok v -> (
    (match member "status" v with
    | Some (String "ok") -> ()
    | _ -> Alcotest.fail "healthz status missing");
    (match member "completed" v with
    | Some (Number "25") -> ()
    | _ -> Alcotest.fail "healthz completed missing");
    (* The fixed parts of the body, byte for byte; the timings between
       them move. *)
    let body = Telemetry.Monitor.healthz_body () in
    Alcotest.(check bool) "healthz bytes pinned" true
      (String.starts_with body ~prefix:{|{"status":"ok","completed":25,"total":100,"elapsed_s":|}
      && String.ends_with body
           ~suffix:(Printf.sprintf {|,"engine_hash":"%s"}|} (Telemetry.Manifest.engine_hash ()))))

let test_monitor_scrape_server () =
  Telemetry.Monitor.reset ();
  Telemetry.Monitor.set_progress ~completed:3 ~total:9;
  (* Port 0: bind whatever is free, talk to it over a plain socket. *)
  match Telemetry.Monitor.start_server ~port:0 with
  | Error reason -> Alcotest.fail reason
  | Ok port ->
    Fun.protect ~finally:(fun () ->
        Telemetry.Monitor.stop_server ();
        Telemetry.Monitor.reset ())
    @@ fun () ->
    let get path =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Buffer.contents buf
    in
    let body_of response =
      (* Body starts after the blank line separating the headers. *)
      let sep = "\r\n\r\n" in
      let rec find i =
        if i + String.length sep > String.length response then None
        else if String.sub response i (String.length sep) = sep then Some (i + String.length sep)
        else find (i + 1)
      in
      match find 0 with
      | Some i -> String.sub response i (String.length response - i)
      | None -> Alcotest.fail "response has no body"
    in
    let metrics = get "/metrics" in
    Alcotest.(check bool) "200 on /metrics" true
      (String.length metrics > 12 && String.sub metrics 0 12 = "HTTP/1.0 200");
    let _, samples = parse_openmetrics (body_of metrics) in
    Alcotest.(check (option (float 0.0)))
      "live progress served" (Some 3.0)
      (sample_value samples "repro_campaign_cells_completed");
    let health = get "/healthz" in
    Alcotest.(check bool) "200 on /healthz" true
      (String.length health > 12 && String.sub health 0 12 = "HTTP/1.0 200");
    let missing = get "/nope" in
    Alcotest.(check bool) "404 elsewhere" true
      (String.length missing > 12 && String.sub missing 0 12 = "HTTP/1.0 404")

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
      ( "openmetrics",
        [
          Alcotest.test_case "counters and histograms round-trip" `Quick
            test_openmetrics_counters_histograms;
          Alcotest.test_case "gauges, sanitisation and label escaping" `Quick
            test_openmetrics_gauges_and_escaping;
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
      ( "monitor",
        [
          Alcotest.test_case "snapshot and exposition bodies" `Quick test_monitor_snapshot;
          Alcotest.test_case "loopback scrape server" `Quick test_monitor_scrape_server;
        ] );
    ]
