type t =
  | Unknown_standard of {
      requested : string;
      known : string list;
    }
  | Empty_sweep of { what : string }
  | Checkpoint_corrupt of {
      path : string;
      line : int;
      reason : string;
    }
  | Deadline_exceeded of {
      deadline_s : float;
      completed : int;
      total : int;
    }

let to_string = function
  | Unknown_standard { requested; known } ->
    Printf.sprintf "unknown standard %S; known standards: %s" requested
      (String.concat ", " known)
  | Empty_sweep { what } -> Printf.sprintf "empty sweep: %s must be at least 1" what
  | Checkpoint_corrupt { path; line; reason } ->
    Printf.sprintf "checkpoint %s corrupt at line %d: %s" path line reason
  | Deadline_exceeded { deadline_s; completed; total } ->
    Printf.sprintf "deadline of %gs exceeded after %d of %d cells; partial results journalled"
      deadline_s completed total

(* One value per constructor, for exhaustive rendering tests: adding a
   variant without extending this list fails the test that checks the
   list covers every branch of [to_string]. *)
let all_examples =
  [
    Unknown_standard { requested = "lte"; known = [ "bluetooth"; "wifi" ] };
    Empty_sweep { what = "dies" };
    Checkpoint_corrupt { path = "/tmp/ckpt.jsonl"; line = 7; reason = "missing field \"key\"" };
    Deadline_exceeded { deadline_s = 1.5; completed = 42; total = 108 };
  ]
