(** Link-lifecycle state machine.

    Executes a {!Plan} against a {!Channel.Duplex}: the link starts dark
    ([Down]), enters [Retargeting] at each window's start while the
    terminal slews (the duplex stays down — retargeting consumes
    lifetime, §3.2), comes [Up] once the retarget overhead is paid,
    drops at window end, and reaches the terminal [Failed] state when
    the last window closes. A window shorter than the retarget overhead
    never comes up at all.

    Transitions call {!Channel.Duplex.set_up}/[set_down] {e before}
    notifying subscribers, so an [Up] hook sees a live link; each
    transition is also published as {!Dlc.Probe.Link_transition} when a
    probe is attached, landing contact boundaries in flight
    recordings. *)

type state = Up | Retargeting | Down | Failed

type t

val create :
  ?probe:Dlc.Probe.t ->
  Sim.Engine.t ->
  plan:Plan.t ->
  duplex:Channel.Duplex.t ->
  unit ->
  t
(** Forces the duplex down immediately (pre-contact dark) and schedules
    every remaining transition on the engine. Windows already entirely
    in the past are skipped; an empty (or fully past) plan goes straight
    to [Failed] at the first engine step. *)

val state : t -> state

val subscribe : t -> (now:float -> old_state:state -> state -> unit) -> unit
(** Hooks fire synchronously, in subscription order, after the duplex
    has been switched. *)

val history : t -> (float * state) list
(** Every transition taken, chronological, including the initial
    [Down]. *)

val transitions : t -> int
(** [List.length (history t) - 1]. *)

val stop : t -> unit
(** Cancel all pending transitions; the current state is kept and the
    duplex is left as-is. *)
