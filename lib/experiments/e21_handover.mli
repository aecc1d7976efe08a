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
  params : Lams_dlc.Params.t;
  n_messages : int;
  msg_bytes : int;
  mtu : int;
  distance_m : float;
  data_rate_bps : float;
  ber : float;
  cframe_ber : float;
  blackouts : (float * float) list;
      (** unscheduled outages as [(start, length)], seconds *)
  cut : [ `None | `First_tx | `First_nak | `Recovery ];
      (** protocol-phase-triggered link cut (at most one per run) *)
  cut_outage : float;  (** outage length of the phase cut, seconds *)
  drop_nth_iframe : int option;
      (** deterministic fault seeding the first NAK, for [`First_nak] *)
  horizon : float;
}

val default_setup : setup
(** Three 25 ms windows with 10 ms gaps, 2 ms retargeting overhead,
    10 x 3000 B messages fragmented at a 1024 B MTU over a 600 km
    crosslink at 300 Mbit/s. *)

type outcome = {
  messages_completed : int;
  payload_count : int;
  duplicates_dropped : int;
  windows_opened : int;
  sessions : int;
  mid_window_failures : int;
  carried_over : int;
  suspicious_carried : int;
  retained : int;
  link_transitions : int;
  completed : bool;  (** every message reassembled at the sink *)
  violations : Oracle.violation list;
      (** cross-handover transfer-conservation violations; empty on a
          clean run; the first 200 *)
  violation_count : int;  (** all of them *)
}

val run_transfer : seed:int -> setup -> outcome
(** One full journey; captures a trace when {!Trace.Config} is set. *)

val transfer :
  ?recorder:Trace.Recorder.t ->
  ?corrupt:Dlc.Corrupt.t * int ->
  seed:int ->
  setup ->
  outcome * Oracle.Transfer.t
(** The journey of {!run_transfer}, recorded into [recorder] when given.
    [corrupt = (schedule, k)] dispatches a compiled corruption schedule
    into whichever session is live, runs the {!Oracle.Transfer} check in
    convergence mode with budget [k], and puts the carryover entries the
    schedule destroys on its casualty ledger (E22's handover row). The
    finalized check comes back for its convergence summary. *)

val outcome_metrics : outcome -> (string * float) list
(** The outcome as a matrix metric vector; [oracle_violations] is
    {!outcome.violation_count}. *)

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
