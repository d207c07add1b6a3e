(* Deadline tokens and cancellation points.

   A token is a wall-clock deadline that long-running kernels poll at
   bounded intervals — the sigma-delta inner loop checks every 4096
   samples, the AFE chain every 4096 samples, the experiment drivers
   between ensemble members.  Polling raises [Cancelled], which the
   fault campaign converts into typed results and the CLI into an exit
   status; nothing else ever catches it.

   Tokens reach the kernels through domain-local storage so a token
   installed around a pool worker's evaluation is visible to every
   kernel that evaluation runs, without threading a parameter through
   the whole simulator.  A process-global interrupt flag (set from the
   CLI's SIGINT handler; an [Atomic.t], so async-signal-safe) is
   checked by every poll regardless of the installed token. *)

type t = {
  flag : bool Atomic.t;  (* latched once the deadline is observed *)
  deadline_ns : int64;  (* absolute, gettimeofday scale *)
}

exception Cancelled of string

let deadline_reason = "deadline"

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let with_deadline seconds =
  let ns = Int64.add (now_ns ()) (Int64.of_float (Float.max 0.0 seconds *. 1e9)) in
  (* A non-positive deadline trips at creation; the lazy clock check
     below is strict, so within one clock tick it would miss. *)
  { flag = Atomic.make (seconds <= 0.0); deadline_ns = ns }

let is_set t =
  Atomic.get t.flag
  ||
  if Int64.compare (now_ns ()) t.deadline_ns > 0 then begin
    (* Latch, so the token stays tripped even if the clock steps back. *)
    Atomic.set t.flag true;
    true
  end
  else false

(* ------------------------------------------------- domain-local scope *)

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let with_token tok f =
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := Some tok;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* --------------------------------------------- process-global interrupt *)

let interrupt_flag = Atomic.make false
let interrupt_reason = Atomic.make "interrupt"

let interrupt ?(reason = "interrupt") () =
  Atomic.set interrupt_reason reason;
  Atomic.set interrupt_flag true

let clear_interrupt () = Atomic.set interrupt_flag false

(* ------------------------------------------------------------- polling *)

let polls_counter = Counter.make "cancel.polls"
let cancels_counter = Counter.make "cancel.cancelled"

let poll () =
  Counter.incr polls_counter;
  if Atomic.get interrupt_flag then begin
    Counter.incr cancels_counter;
    raise (Cancelled (Atomic.get interrupt_reason))
  end;
  match !(Domain.DLS.get key) with
  | None -> ()
  | Some t ->
    if is_set t then begin
      Counter.incr cancels_counter;
      raise (Cancelled deadline_reason)
    end
