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

val run_one :
  ?recorder:Trace.Recorder.t ->
  ?frames:int ->
  guard_on:bool ->
  seed:int ->
  variant ->
  lie ->
  Scenario.checked
(** One run: scripted forward I-frame drops (NAK material for the lies
    to tamper with), the lie class's reverse script, base oracle plus
    feedback oracle attached for the whole run. Captures a trace when
    {!Trace.Config} is set (or records into [recorder]). [frames]
    overrides the stream length (compact golden traces). Its metrics are
    the E24 cell: [faults] (reverse-channel fault hits), [lies]
    (clean-looking forgeries among them), [quarantines], [resyncs],
    [resolved_episodes] (disturbance episodes closed by a recovery),
    [time_to_resync] (the worst resolved episode, seconds),
    [failure_declared], [unresolved] (an episode still open at the
    end), [wrongful_releases], [oracle_violations] (all base-oracle
    violations), [delivered], [completed] and [goodput_floor] (the
    minimum bucketed delivery rate inside the blackout window, bits/s;
    0 when unmeasured, as on every row without a blackout). *)

val run_scripted :
  ?recorder:Trace.Recorder.t ->
  ?frames:int ->
  guard_on:bool ->
  seed:int ->
  variant ->
  Channel.Fault.spec ->
  Scenario.checked
(** Like {!run_one} but with an arbitrary reverse-channel fault script
    (e.g. loaded from a [--lie-script] file via {!Channel.Fault.load})
    instead of a canonical lie class. *)

val points : quick:bool -> Runner.point list

val soak_experiment : schedules:int -> Runner.experiment
(** The lying-feedback soak's schedules ({!Soak.feedback}): guard always
    on, variant rotated per schedule. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
