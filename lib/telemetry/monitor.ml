(* Live campaign monitoring.

   Three cooperating pieces:

   - a *progress board*: the campaign layers post completed/total cell
     counts here (and any subsystem can register a named gauge
     provider — the evaluation engine posts cache occupancy, pool lane
     state and deadline remaining);
   - a *heartbeat*: piggybacked on the cancellation-poll cadence the
     simulator inner loops already pay (every 4096 samples), a
     rate-limited snapshot line goes to {!Log} at info level;
   - a *scrape server*: an opt-in, single-threaded HTTP listener on
     loopback serving `GET /metrics` (OpenMetrics text: every
     registry plus the snapshot gauges) and `GET /healthz` (a small
     JSON liveness document).

   Everything is off by default and costs one atomic load per
   cancellation poll when off — the monitor must never show up in the
   bench numbers of an unmonitored run.  The scrape server runs in its
   own domain; it only reads atomics, module-initialisation-time
   registry tables and mutex-guarded monitor state, so a mid-run
   scrape perturbs nothing. *)

let active = Atomic.make false

let heartbeats_counter = Counter.make "monitor.heartbeats"
let scrapes_counter = Counter.make "monitor.scrapes"

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------- progress board *)

type progress = {
  mutable completed : int;
  mutable total : int;
  mutable started_ns : int64;  (* first post; 0L = never *)
  mutable updated_ns : int64;
}

let board = { completed = 0; total = 0; started_ns = 0L; updated_ns = 0L }
let board_mutex = Mutex.create ()

let set_progress ~completed ~total =
  Mutex.lock board_mutex;
  let t = now_ns () in
  if board.started_ns = 0L then board.started_ns <- t;
  board.completed <- completed;
  board.total <- total;
  board.updated_ns <- t;
  Mutex.unlock board_mutex

let providers : (string * (unit -> (string * float) list)) list ref = ref []
let providers_mutex = Mutex.create ()

let register name f =
  Mutex.lock providers_mutex;
  providers := (name, f) :: List.remove_assoc name !providers;
  Mutex.unlock providers_mutex

let provider_gauges () =
  Mutex.lock providers_mutex;
  let ps = !providers in
  Mutex.unlock providers_mutex;
  List.concat_map
    (fun (_, f) -> match f () with gs -> gs | exception _ -> [])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) ps)

(* -------------------------------------------------------------- snapshot *)

type snapshot = {
  completed : int;
  total : int;
  elapsed_s : float;
  eta_s : float option;
  cache_hit_rate : float option;
  gauges : (string * float) list;
}

let counter_value name = Option.map Counter.value (Counter.find name)

let cache_hit_rate () =
  match counter_value "engine.cache.hit", counter_value "engine.cache.miss" with
  | Some h, Some m when h + m > 0 -> Some (float_of_int h /. float_of_int (h + m))
  | _ -> None

let snapshot () =
  Mutex.lock board_mutex;
  let completed = board.completed
  and total = board.total
  and started = board.started_ns in
  Mutex.unlock board_mutex;
  let elapsed_s =
    if started = 0L then 0.0 else Int64.to_float (Int64.sub (now_ns ()) started) /. 1e9
  in
  let eta_s =
    if completed > 0 && total > completed && started <> 0L then
      Some (elapsed_s /. float_of_int completed *. float_of_int (total - completed))
    else None
  in
  {
    completed;
    total;
    elapsed_s;
    eta_s;
    cache_hit_rate = cache_hit_rate ();
    gauges = provider_gauges ();
  }

let gauges () =
  let s = snapshot () in
  let open Openmetrics in
  [
    gauge ~help:"campaign cells completed" "campaign_cells_completed" (float_of_int s.completed);
    gauge ~help:"campaign cells planned" "campaign_cells_planned" (float_of_int s.total);
  ]
  @ (match s.eta_s with
    | Some eta -> [ gauge ~help:"estimated seconds to completion" "campaign_eta_seconds" eta ]
    | None -> [])
  @ (match s.cache_hit_rate with
    | Some r -> [ gauge ~help:"engine result-cache hit rate" "engine_cache_hit_rate" r ]
    | None -> [])
  @ List.map (fun (name, v) -> gauge name v) s.gauges

let metrics_body () = Openmetrics.render ~gauges:(gauges ()) ()

(* ------------------------------------------------------------- heartbeat *)

let interval_ns = Atomic.make 1_000_000_000  (* 1 s *)
let last_beat_ns = Atomic.make 0L
let beat_mutex = Mutex.create ()

let heartbeat_fields () =
  let s = snapshot () in
  let pct =
    if s.total = 0 then "-"
    else Printf.sprintf "%.0f%%" (100.0 *. float_of_int s.completed /. float_of_int s.total)
  in
  [
    ("progress", Printf.sprintf "%d/%d" s.completed s.total);
    ("pct", pct);
    ("eta_s", match s.eta_s with Some e -> Printf.sprintf "%.0f" e | None -> "-");
    ( "cache_hit",
      match s.cache_hit_rate with Some r -> Printf.sprintf "%.2f" r | None -> "-" );
  ]
  @ List.map (fun (name, v) -> (name, Printf.sprintf "%g" v)) s.gauges

let beat () =
  Counter.incr heartbeats_counter;
  Log.info ~fields:(heartbeat_fields ()) "heartbeat"

(* Called from [Cancel.poll] — every 4096 simulator samples on
   whichever domain runs them.  One atomic load when monitoring is
   off; when on, a clock read amortised by the rate limit and a
   try-lock so two domains never double-beat. *)
let tick () =
  if Atomic.get active then begin
    let now = now_ns () in
    let last = Atomic.get last_beat_ns in
    if Int64.sub now last >= Int64.of_int (Atomic.get interval_ns) && Mutex.try_lock beat_mutex
    then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock beat_mutex)
        (fun () ->
          (* Re-check under the lock: another domain may have beaten
             between the load and the lock. *)
          if Int64.sub now (Atomic.get last_beat_ns) >= Int64.of_int (Atomic.get interval_ns)
          then begin
            Atomic.set last_beat_ns now;
            beat ()
          end)
  end

let set_heartbeat ?interval_s on =
  (match interval_s with
  | Some s when s > 0.0 -> Atomic.set interval_ns (int_of_float (s *. 1e9))
  | _ -> ());
  Atomic.set active on

(* ---------------------------------------------------------- HTTP scrape *)

let escape_json s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let healthz_body () =
  let s = snapshot () in
  let opt_num = function Some v when Float.is_finite v -> Printf.sprintf "%.3f" v | _ -> "null" in
  let deadline = List.assoc_opt "engine_deadline_remaining_seconds" s.gauges in
  Printf.sprintf
    {|{"status":"ok","completed":%d,"total":%d,"elapsed_s":%s,"eta_s":%s,"cache_hit_rate":%s,"deadline_remaining_s":%s,"engine_hash":"%s"}|}
    s.completed s.total
    (Printf.sprintf "%.3f" s.elapsed_s)
    (opt_num s.eta_s) (opt_num s.cache_hit_rate) (opt_num deadline)
    (escape_json (Manifest.engine_hash ()))

type server = {
  sock : Unix.file_descr;
  srv_port : int;
  shutdown : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let server : server option ref = ref None
let server_mutex = Mutex.create ()

let http_response ~status ~content_type body =
  Printf.sprintf "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let openmetrics_content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

let handle_request raw =
  let first_line = match String.index_opt raw '\r' with
    | Some i -> String.sub raw 0 i
    | None -> (match String.index_opt raw '\n' with Some i -> String.sub raw 0 i | None -> raw)
  in
  match String.split_on_char ' ' first_line with
  | "GET" :: path :: _ -> (
    let path = match String.index_opt path '?' with Some i -> String.sub path 0 i | None -> path in
    match path with
    | "/metrics" ->
      Counter.incr scrapes_counter;
      http_response ~status:"200 OK" ~content_type:openmetrics_content_type (metrics_body ())
    | "/healthz" ->
      http_response ~status:"200 OK" ~content_type:"application/json" (healthz_body ())
    | _ -> http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n")
  | _ -> http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"

let serve_client fd =
  (* One bounded read is enough for a scrape request line; anything
     longer is not a client we serve. *)
  let buf = Bytes.create 4096 in
  match Unix.read fd buf 0 4096 with
  | exception Unix.Unix_error _ -> ()
  | 0 -> ()
  | n ->
    let response = handle_request (Bytes.sub_string buf 0 n) in
    let pos = ref 0 in
    (try
       while !pos < String.length response do
         pos := !pos + Unix.write_substring fd response !pos (String.length response - !pos)
       done
     with Unix.Unix_error _ -> ())

let rec accept_loop srv =
  if not (Atomic.get srv.shutdown) then begin
    match Unix.select [ srv.sock ] [] [] 0.25 with
    | [], _, _ -> accept_loop srv
    | _ :: _, _, _ ->
      (match Unix.accept srv.sock with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> serve_client fd));
      accept_loop srv
    | exception Unix.Unix_error _ -> ()
  end

let stop_server () =
  Mutex.lock server_mutex;
  let s = !server in
  server := None;
  Mutex.unlock server_mutex;
  match s with
  | None -> ()
  | Some srv ->
    Atomic.set srv.shutdown true;
    Option.iter Domain.join srv.domain;
    (try Unix.close srv.sock with Unix.Unix_error _ -> ())

let start_server ~port =
  Mutex.lock server_mutex;
  let already = !server <> None in
  Mutex.unlock server_mutex;
  if already then Error "monitor: scrape server already running"
  else begin
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    match Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "monitor: cannot bind port %d: %s" port (Unix.error_message err))
    | () ->
      Unix.listen sock 16;
      let srv_port =
        match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
      in
      let srv = { sock; srv_port; shutdown = Atomic.make false; domain = None } in
      srv.domain <- Some (Domain.spawn (fun () -> accept_loop srv));
      Mutex.lock server_mutex;
      server := Some srv;
      Mutex.unlock server_mutex;
      Atomic.set active true;
      at_exit stop_server;
      Log.info
        ~fields:[ ("port", string_of_int srv_port); ("endpoints", "/metrics /healthz") ]
        "monitor: scrape server listening";
      Ok srv_port
  end

let server_port () =
  Mutex.lock server_mutex;
  let p = Option.map (fun s -> s.srv_port) !server in
  Mutex.unlock server_mutex;
  p

let reset () =
  Atomic.set active false;
  Atomic.set last_beat_ns 0L;
  Mutex.lock board_mutex;
  board.completed <- 0;
  board.total <- 0;
  board.started_ns <- 0L;
  board.updated_ns <- 0L;
  Mutex.unlock board_mutex
