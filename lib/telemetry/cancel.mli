(** Deadline tokens and cancellation points.

    Long campaigns need three things the raw kernels do not provide: a
    way to stop a hung or over-budget run (the engine's deadline), a
    way to stop everything cleanly on SIGINT (the process-global
    interrupt), and bounded latency between either signal and the
    actual stop (the kernels poll every 4096 samples).  A poll that
    observes a passed deadline or a pending interrupt raises
    {!Cancelled}; only the fault campaign and the CLI catch it and
    turn it into typed results — everything below treats it as a
    non-local exit that must not be swallowed.

    Polling with no token installed and no interrupt pending is one
    atomic increment (the [cancel.polls] counter), one atomic load and
    a domain-local read — cheap enough for simulator inner loops. *)

type t
(** A wall-clock deadline. *)

exception Cancelled of string
(** Raised by {!poll}; the payload is {!deadline_reason} for a passed
    deadline, the interrupt's reason otherwise. *)

val deadline_reason : string
(** The reason a passed deadline carries ("deadline"), so callers can
    tell a timeout from an interrupt without holding the token. *)

val with_deadline : float -> t
(** [with_deadline s] trips once [s] seconds of wall clock have passed
    (checked lazily at poll time, and latched once observed); a
    non-positive [s] trips at once. *)

val is_set : t -> bool

val with_token : t -> (unit -> 'a) -> 'a
(** Install the token in domain-local storage for the scope of [f]:
    every {!poll} on this domain inside [f] observes it.  Nests;
    innermost token wins. *)

val interrupt : ?reason:string -> unit -> unit
(** Trip the process-global interrupt flag (async-signal-safe — this is
    what a SIGINT handler calls).  Every domain's next poll raises. *)

val clear_interrupt : unit -> unit
(** For tests only: lower the interrupt flag again, so one test process
    can trip it more than once.  A run is never un-interrupted. *)

val poll : unit -> unit
(** Cancellation point: raise [Cancelled] if the global interrupt is
    pending or the domain's installed token has tripped. *)
