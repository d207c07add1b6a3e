let jattrs attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)

let summary_table ?(out = stdout) () =
  let p fmt = Printf.fprintf out fmt in
  p "# telemetry summary\n";
  let spans = Span.aggregates () in
  if spans = [] then p "(no spans recorded — telemetry disabled or nothing instrumented ran)\n"
  else begin
    p "%-34s %9s %12s %12s %12s %12s\n" "span" "calls" "total ms" "self ms" "p50 ms" "p99 ms";
    List.iter
      (fun (a : Span.aggregate) ->
        p "%-34s %9d %12.3f %12.3f %12.3f %12.3f\n" a.Span.agg_name a.Span.agg_calls
          (Clock.ns_to_ms a.Span.agg_total_ns)
          (Clock.ns_to_ms a.Span.agg_self_ns)
          (a.Span.agg_p50_ns /. 1e6) (a.Span.agg_p99_ns /. 1e6))
      spans;
    if Span.dropped () > 0 then
      p "(%d span events dropped past the %d-event buffer)\n" (Span.dropped ()) Span.capacity
  end;
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  if counters <> [] then begin
    p "\ncounters (always on)\n";
    List.iter (fun (name, v) -> p "  %-34s %12d\n" name v) counters
  end;
  let histograms =
    List.filter (fun h -> h.Histogram.h_count > 0) (Histogram.snapshot ())
  in
  if histograms <> [] then begin
    p "\nhistograms (always on)\n";
    List.iter
      (fun h ->
        p "  %-34s count %-8d mean %-10.1f p50 %-10.1f p99 %-10.1f\n" h.Histogram.h_name
          h.Histogram.h_count
          (if h.Histogram.h_count = 0 then 0.0 else h.Histogram.h_sum /. float_of_int h.Histogram.h_count)
          h.Histogram.h_p50 h.Histogram.h_p99)
      histograms
  end;
  flush out

let chrome_trace_string () =
  let epoch = Span.epoch_ns () in
  let us_of ns = Int64.to_float (Int64.sub ns epoch) /. 1e3 in
  let last_end = ref 0.0 in
  let spans =
    List.map
      (fun (e : Span.event) ->
        let ts = us_of e.Span.ev_start_ns in
        let dur = Int64.to_float e.Span.ev_dur_ns /. 1e3 in
        if ts +. dur > !last_end then last_end := ts +. dur;
        Json.Obj
          [
            ("name", Json.String e.Span.ev_name);
            ("cat", Json.String "span");
            ("ph", Json.String "X");
            ("ts", Json.fixed 3 ts);
            ("dur", Json.fixed 3 dur);
            ("pid", Json.int 1);
            ("tid", Json.int 1);
            ("args", jattrs e.Span.ev_attrs);
          ])
      (Span.events ())
  in
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  let instant =
    if counters = [] then []
    else
      [
        Json.Obj
          [
            ("name", Json.String "counters");
            ("ph", Json.String "I");
            ("ts", Json.fixed 3 !last_end);
            ("s", Json.String "g");
            ("pid", Json.int 1);
            ("tid", Json.int 1);
            ("args", Json.Obj (List.map (fun (name, v) -> (name, Json.int v)) counters));
          ];
      ]
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.String "ms"); ("traceEvents", Json.List (spans @ instant)) ])

let jsonl_string () =
  let buf = Buffer.create 4096 in
  let line fields =
    Buffer.add_string buf (Json.to_string (Json.Obj fields));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (e : Span.event) ->
      line
        [
          ("type", Json.String "span");
          ("name", Json.String e.Span.ev_name);
          ("start_ns", Json.int64 e.Span.ev_start_ns);
          ("dur_ns", Json.int64 e.Span.ev_dur_ns);
          ("depth", Json.int e.Span.ev_depth);
          ("attrs", jattrs e.Span.ev_attrs);
        ])
    (Span.events ());
  if Span.dropped () > 0 then
    line [ ("type", Json.String "dropped_spans"); ("count", Json.int (Span.dropped ())) ];
  List.iter
    (fun (name, v) ->
      if v <> 0 then
        line [ ("type", Json.String "counter"); ("name", Json.String name); ("value", Json.int v) ])
    (Counter.snapshot ());
  List.iter
    (fun h ->
      if h.Histogram.h_count > 0 then
        line
          [
            ("type", Json.String "histogram");
            ("name", Json.String h.Histogram.h_name);
            ("count", Json.int h.Histogram.h_count);
            ("sum", Json.float h.Histogram.h_sum);
            ("min", Json.float h.Histogram.h_min);
            ("max", Json.float h.Histogram.h_max);
            ("p50", Json.float h.Histogram.h_p50);
            ("p99", Json.float h.Histogram.h_p99);
          ])
    (Histogram.snapshot ());
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_chrome_trace path = write_file path (chrome_trace_string ())
let write_jsonl path = write_file path (jsonl_string ())

let reset_all () =
  Counter.reset_all ();
  Histogram.reset_all ();
  Span.reset ()
