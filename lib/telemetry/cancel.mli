(** Cooperative cancellation tokens and cancellation points.

    Long campaigns need three things the raw kernels do not provide: a
    way to stop a hung or over-budget evaluation (deadlines), a way to
    stop everything cleanly on SIGINT (the process-global interrupt),
    and bounded latency between either signal and the actual stop (the
    kernels poll every 4096 samples).  A poll that observes a tripped
    token raises {!Cancelled}; only the supervision layers (the
    evaluation engine's deadlined entry points, the fault campaign)
    catch it and turn it into typed results — everything below treats
    it as a non-local exit that must not be swallowed.

    Polling with no token installed and no interrupt pending is two
    atomic loads — cheap enough for simulator inner loops. *)

type t

exception Cancelled of string
(** Raised by {!poll} / {!check}; the payload is the token's reason. *)

val deadline_reason : string
(** The reason string deadline tokens carry ("deadline"), so callers
    can tell a timeout from an interrupt without holding the token. *)

val create : ?reason:string -> unit -> t
(** A manual token; trips when {!set}. *)

val with_deadline : ?reason:string -> float -> t
(** [with_deadline s] trips once [s] seconds of wall clock have passed
    (checked lazily at poll time, and latched once observed). *)

val set : t -> unit
val is_set : t -> bool
val reason : t -> string

val remaining_s : t -> float option
(** Seconds until the deadline trips ([Some 0.] once tripped; [None]
    for a manual token that has not been set). *)

val check : t -> unit
(** Raise [Cancelled] if the token has tripped. *)

val with_token : t -> (unit -> 'a) -> 'a
(** Install the token in domain-local storage for the scope of [f]:
    every {!poll} on this domain inside [f] observes it.  Nests;
    innermost token wins. *)

val current : unit -> t option

val interrupt : ?reason:string -> unit -> unit
(** Trip the process-global interrupt flag (async-signal-safe — this is
    what a SIGINT handler calls).  Every domain's next poll raises. *)

val interrupted : unit -> bool
val clear_interrupt : unit -> unit

val poll : unit -> unit
(** Cancellation point: raise [Cancelled] if the global interrupt is
    pending or the domain's installed token has tripped. *)
