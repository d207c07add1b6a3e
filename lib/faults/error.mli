(** Typed campaign-level errors.

    Everything a stress campaign can refuse to do is enumerated here;
    the library layer never raises and never exits — the CLI decides
    what an error is worth. *)

type t =
  | Unknown_standard of {
      requested : string;
      known : string list;
    }
  | Empty_sweep of { what : string }
  | Checkpoint_corrupt of {
      path : string;
      line : int;  (** 1-based line number of the malformed record *)
      reason : string;
    }
  | Deadline_exceeded of {
      deadline_s : float;
      completed : int;  (** cells that finished (and were journalled) in time *)
      total : int;
    }

val to_string : t -> string
(** Total over every variant — the CLI prints this verbatim. *)

val all_examples : t list
(** One representative value per constructor, for exhaustive rendering
    tests. *)
