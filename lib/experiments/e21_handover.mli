(** E21 — Multi-contact transfer: session survival across link lifetimes.

    The handover tentpole's end-to-end evaluation: one logical transfer
    (fragmented messages, reassembled by a destination
    {!Netstack.Resequencer}) rides a {!Handover.Manager} across a
    scripted multi-window contact plan, with optional unscheduled
    blackouts and protocol-phase-triggered link cuts (mid-serialisation,
    between a NAK-bearing checkpoint and its arrival, during enforced
    recovery). The cross-handover {!Oracle.Transfer} conservation check
    (including sink uniqueness past the resequencer) watches every run;
    the chaos soak sweeps seed-pinned random blackout schedules through
    the replicated matrix runner. *)

val name : string

type setup = {
  plan : Handover.Plan.t;
  n_messages : int;
  msg_bytes : int;
  blackouts : (float * float) list;
      (** unscheduled outages as [(start, length)], seconds *)
  cut : [ `None | `First_tx | `First_nak | `Recovery ];
      (** protocol-phase-triggered link cut (at most one per run), a
          4 ms outage; a run with a cut also drops I-frame 3, which
          seeds the first NAK for [`First_nak] *)
}
(** Every run fragments at a 1024 B MTU over a 600 km crosslink at
    300 Mbit/s (BER 1e-6, 1e-7 on control frames), with a 1 ms
    checkpoint interval, until a 0.15 s horizon. *)

val default_setup : setup
(** Three 25 ms windows with 10 ms gaps, 2 ms retargeting overhead,
    10 x 3000 B messages, no blackout and no cut. *)

val transfer :
  ?recorder:Trace.Recorder.t ->
  ?corrupt:Dlc.Corrupt.t * int ->
  seed:int ->
  setup ->
  Scenario.checked * Oracle.Transfer.t
(** One full journey, recorded into [recorder] when given (the matrix
    points capture a trace when {!Trace.Config} is set). Its metrics are
    the E21 cell: [messages_completed], [payloads], [dup_dropped]
    (duplicates the sink's resequencer absorbed), [windows_opened],
    [sessions], [mid_window_failures], [carried_over],
    [suspicious_carried], [retained] (undelivered at the end),
    [link_transitions], [completed] (every message reassembled at the
    sink) and [oracle_violations] (all cross-handover
    transfer-conservation violations, past the list's cap too).
    [corrupt = (schedule, k)] dispatches a compiled corruption schedule
    into whichever session is live, runs the {!Oracle.Transfer} check in
    convergence mode with budget [k], and puts the carryover entries the
    schedule destroys on its casualty ledger (E22's handover row). The
    finalized check comes back for its convergence summary. *)

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val soak_experiment : schedules:int -> Runner.experiment
(** The chaos soak's schedules ({!Soak.handover}): one matrix point per
    random blackout schedule, each derived from its own task seed (so
    any schedule index reproduces identically on any worker of any
    [--jobs] run). *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the E21 report from its matrix run. *)
