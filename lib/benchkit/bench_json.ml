(* The bench JSON trajectory file and its regression gate.

   Schema "bench-kernels/2": {"schema", "manifest", "results": [{name,
   ns_per_run, minor_words_per_run}]}.  The manifest (run provenance,
   see Telemetry.Manifest) records exactly which build and argv
   produced a committed baseline.  Any other schema is rejected.

   The gate compares ns/run and minor-words/run per kernel against a
   baseline under generous multiplicative tolerances: the committed
   baseline and a CI run sit on different machines and different bench
   quotas, so only multiple-of-baseline blowups are actionable.
   Allocation tolerances are tighter (allocation per run is
   machine-independent) but carry an absolute slack so a kernel that
   allocates nearly nothing cannot fail on a few words of noise. *)

type kernel = {
  name : string;
  ns_per_run : float;
  minor_words_per_run : float;
}

type file = {
  manifest : Telemetry.Manifest.t option;
  kernels : kernel list;
}

(* --------------------------------------------------------------- write *)

let schema_name = "bench-kernels/2"

module Json = Telemetry.Json

(* Indented one kernel per line, so trajectory diffs stay readable;
   every token comes from the codec. *)
let write ~path ?manifest kernels =
  let j v = Json.to_string v in
  let num x = j (Json.fixed 3 x) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": %s,\n" (j (Json.String schema_name));
      (match manifest with
      | None -> ()
      | Some m -> Printf.fprintf oc "  \"manifest\": %s,\n" (j (Telemetry.Manifest.to_json m)));
      output_string oc "  \"results\": [\n";
      let sorted = List.sort (fun a b -> String.compare a.name b.name) kernels in
      let n = List.length sorted in
      List.iteri
        (fun i k ->
          Printf.fprintf oc
            "    { \"name\": %s, \"ns_per_run\": %s, \"minor_words_per_run\": %s }%s\n"
            (j (Json.String k.name))
            (num k.ns_per_run)
            (num k.minor_words_per_run)
            (if i = n - 1 then "" else ","))
        sorted;
      output_string oc "  ]\n}\n")

(* ---------------------------------------------------------------- read *)

let of_string src =
  let ( let* ) = Result.bind in
  let* top = Json.of_string src in
  let* () =
    match Json.member "schema" top with
    | Some (Json.String s) when s = schema_name -> Ok ()
    | Some (Json.String other) -> Error (Printf.sprintf "unsupported schema %S" other)
    | _ -> Error "missing schema"
  in
  (* A manifest that does not decode is dropped, not fatal: the kernels
     are what the gate needs. *)
  let manifest =
    Option.bind (Json.member "manifest" top) (fun m ->
        Result.to_option (Telemetry.Manifest.of_json m))
  in
  let kernel_of = function
    | Json.Obj _ as k ->
      let num name =
        match Json.member name k with
        | Some Json.Null | None -> Ok nan
        | Some v -> Option.to_result ~none:(name ^ " must be a number") (Json.to_float v)
      in
      let* name =
        match Json.member "name" k with
        | Some (Json.String s) -> Ok s
        | _ -> Error "kernel name must be a string"
      in
      let* ns_per_run = num "ns_per_run" in
      let* minor_words_per_run = num "minor_words_per_run" in
      Ok { name; ns_per_run; minor_words_per_run }
    | _ -> Error "results entries must be objects"
  in
  match Json.member "results" top with
  | Some (Json.List items) ->
    let* kernels =
      List.fold_right
        (fun item acc ->
          let* k = kernel_of item in
          let* rest = acc in
          Ok (k :: rest))
        items (Ok [])
    in
    Ok { manifest; kernels }
  | _ -> Error "missing results array"

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> of_string raw

(* ---------------------------------------------------------------- gate *)

type tolerance = {
  ns_ratio : float;
  mwd_ratio : float;
  mwd_slack : float;
}

(* The baseline is measured at the full bechamel quota, the gate at
   the fast one.  The allocation slack keeps a kernel that allocates
   nearly nothing from failing on the few words that differ between
   the two (engine:cache-hit reads 199 words/run at full quota and 205
   at fast on the same build). *)
let default_tolerance = { ns_ratio = 2.0; mwd_ratio = 1.25; mwd_slack = 128.0 }

(* Sub-microsecond kernels: the measured quantity is a handful of
   instructions, where scheduler noise, frequency scaling and bechamel
   quota differences dominate — give them extra headroom. *)
let noisy_kernels =
  [
    "telemetry:span-disabled";
    "telemetry:counter-incr";
    "engine:cache-hit";
    "telemetry:cancel-poll-1k";
    "onchip:alu-evaluation";
  ]

(* Arena-converted kernels: the workspace refactor (DESIGN §15) made
   these allocate only their returned result records, so the 128-word
   slack is more headroom than they need.  Keep them on half of it so
   a stage that quietly falls back to an allocating path cannot hide
   inside the slack. *)
let arena_kernels =
  [
    "engine:cache-miss";
    "engine:cache-miss-invalid";
    "engine:batch8-1domain";
    "engine:batch8-2domains";
    "faults:campaign-cell";
    "fig7:snr-mod-per-key";
    "fig11:sweep-point";
    "fig12:two-tone-sfdr";
    "compare:baseline-probes";
  ]

let tolerance_for name =
  if List.mem name noisy_kernels then { default_tolerance with ns_ratio = 3.0 }
  else if List.mem name arena_kernels then { default_tolerance with mwd_slack = 64.0 }
  else default_tolerance

(* Absolute minor-words budgets for the converted kernels — the
   alloc-smoke contract.  Unlike the ratio gate these do not need a
   baseline file: they are the allocation model itself (result record
   + per-eval bookkeeping, no full-record scratch arrays), with ~4x
   headroom over measured values so a different machine or bechamel
   quota cannot trip them, while any reintroduced per-stage copy of
   even one 9216-sample record (+18k words minimum) fails outright. *)
let alloc_budgets =
  [
    ("engine:cache-miss", 30_000.0);
    ("engine:cache-miss-invalid", 30_000.0);
    ("engine:batch8-1domain", 340_000.0);
    ("engine:batch8-2domains", 340_000.0);
    ("faults:campaign-cell", 80_000.0);
    ("fig7:snr-mod-per-key", 24_000.0);
  ]

type verdict =
  | Pass
  | Regressed of {
      field : string;
      baseline : float;
      current : float;
      limit : float;
    }
  | Missing

type comparison = {
  kernel : string;
  verdict : verdict;
}

(* Compare current results against a baseline.  Kernels only in the
   current run pass silently (new kernels are not regressions); kernels
   only in the baseline are [Missing] when [require_all] (a full-suite
   gate must notice a kernel that silently stopped running, but a
   --only run must not fail on everything it skipped). *)
let compare_results ~baseline ~current ~require_all =
  let find xs name = List.find_opt (fun k -> k.name = name) xs in
  List.filter_map
    (fun b ->
      match find current b.name with
      | None -> if require_all then Some { kernel = b.name; verdict = Missing } else None
      | Some c ->
        let tol = tolerance_for b.name in
        let ns_limit = b.ns_per_run *. tol.ns_ratio in
        let mwd_limit = (b.minor_words_per_run *. tol.mwd_ratio) +. tol.mwd_slack in
        let verdict =
          if Float.is_finite b.ns_per_run && Float.is_finite c.ns_per_run
             && c.ns_per_run > ns_limit
          then
            Regressed
              { field = "ns_per_run"; baseline = b.ns_per_run; current = c.ns_per_run;
                limit = ns_limit }
          else if
            Float.is_finite b.minor_words_per_run
            && Float.is_finite c.minor_words_per_run
            && c.minor_words_per_run > mwd_limit
          then
            Regressed
              { field = "minor_words_per_run"; baseline = b.minor_words_per_run;
                current = c.minor_words_per_run; limit = mwd_limit }
          else Pass
        in
        Some { kernel = b.name; verdict })
    (List.sort (fun a b -> String.compare a.name b.name) baseline)

let check_budgets current =
  List.filter_map
    (fun (name, budget) ->
      match List.find_opt (fun k -> k.name = name) current with
      | None -> None  (* --only runs check whatever subset they measured *)
      | Some c when Float.is_finite c.minor_words_per_run ->
        if c.minor_words_per_run > budget then
          Some
            {
              kernel = name;
              verdict =
                Regressed
                  { field = "minor_words_budget"; baseline = budget;
                    current = c.minor_words_per_run; limit = budget };
            }
        else Some { kernel = name; verdict = Pass }
      | Some _ -> None)
    alloc_budgets

let regressions comparisons =
  List.filter (fun c -> c.verdict <> Pass) comparisons

let verdict_to_string c =
  match c.verdict with
  | Pass -> Printf.sprintf "PASS     %s" c.kernel
  | Missing -> Printf.sprintf "MISSING  %s (in baseline, absent from this run)" c.kernel
  | Regressed { field; baseline; current; limit } ->
    Printf.sprintf "REGRESS  %s: %s %.1f -> %.1f (limit %.1f)" c.kernel field baseline current
      limit
