(** E24 — Byzantine feedback: lie classes x variants x guard.

    The feedback-hardening tentpole's evaluation: a {!Channel.Fault}
    script on the {e reverse} link tells semantic lies — forged ACKs,
    rewritten checkpoint sequence numbers, stale-checkpoint replays, or
    a total blackout window — while the protocol-matched {!Oracle} plus
    its {!Oracle.Feedback} extension watch for wrongful releases, time
    to forced resynchronisation, and the goodput floor through the
    blackout. Every cell runs twice: guard off (the bare paper
    protocol) and guard on ({!Dlc.Guard} plausibility checks with an
    immediate-escalation distrust threshold). The soak drives
    seed-pinned random lying schedules — drops, forgeries, rewrites and
    replays mixed — through the replicated matrix runner with the guard
    always on. *)

val name : string

type variant = E22_corruption.variant = Lams | Sr_hdlc | Nbdt_bulk

type lie = No_lie | Forge | Rewrite | Stale | Blackout

val lie_tag : lie -> string

val lies : lie list

type outcome = {
  variant : string;
  lie : string;
  guarded : bool;
  faults : int;  (** reverse-channel fault hits *)
  lies_told : int;  (** clean-looking forgeries among them *)
  quarantines : int;
  resyncs : int;
  failure_declared : bool;
  resolved : int;  (** disturbance episodes closed by a recovery *)
  time_to_resync : float;  (** worst resolved episode, seconds *)
  unresolved : bool;  (** an episode was still open at the end *)
  wrongful : int;  (** oracle-detected wrongful releases *)
  violations : int;  (** all base-oracle violations *)
  delivered : int;
  completed : bool;
  goodput_floor : float;
      (** min bucketed delivery rate inside the blackout window (bits/s);
          nan for non-blackout rows *)
}

val run_one :
  ?recorder:Trace.Recorder.t ->
  ?frames:int ->
  guard_on:bool ->
  seed:int ->
  variant ->
  lie ->
  outcome
(** One run: scripted forward I-frame drops (NAK material for the lies
    to tamper with), the lie class's reverse script, base oracle plus
    feedback oracle attached for the whole run. Captures a trace when
    {!Trace.Config} is set (or records into [recorder]). [frames]
    overrides the stream length (compact golden traces). *)

val run_scripted :
  ?recorder:Trace.Recorder.t ->
  ?frames:int ->
  guard_on:bool ->
  seed:int ->
  variant ->
  Channel.Fault.spec ->
  outcome
(** Like {!run_one} but with an arbitrary reverse-channel fault script
    (e.g. loaded from a [--lie-script] file via {!Channel.Fault.load})
    instead of a canonical lie class. *)

val outcome_metrics : outcome -> (string * float) list
(** The outcome as a matrix metric vector ([wrongful_releases],
    [completed] and [failure_declared] among them; booleans are 0/1). *)

val points : quick:bool -> Runner.point list

val soak_experiment : schedules:int -> Runner.experiment
(** The lying-feedback soak's schedules ({!Soak.feedback}): guard always
    on, variant rotated per schedule. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
