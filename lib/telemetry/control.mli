(** The telemetry master switch.

    Counters and histograms are always on: they are plain integer
    arithmetic, deterministic for a fixed seed, and cheap enough to
    leave in the hot paths (see DESIGN.md, "Telemetry & profiling").
    Spans — which read the clock, allocate events, and keep a stack —
    are gated on this switch and cost one branch when disabled. *)

val enabled : unit -> bool
(** Whether span collection is active (default: off). *)

val set_enabled : bool -> unit
