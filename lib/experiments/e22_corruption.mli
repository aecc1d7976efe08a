(** E22 — Self-stabilisation: convergence after live-state corruption.

    The state-corruption tentpole's evaluation, after Dolev et al.'s
    self-stabilising ARQ model: a {!Dlc.Corrupt} schedule mutates a live
    session's state (sequence counters, NAK ledgers, send buffer, stale
    reverse-control replay) and the protocol-matched {!Oracle} runs in
    convergence mode — violations inside the post-injection suspect
    window are tolerated anomalies, and all invariants must be
    re-established within [k] checkpoint emissions (or the protocol must
    declare failure explicitly). The report sweeps every corruption
    class over all three variants; carryover-snapshot staleness runs
    through the handover manager with the cross-handover
    {!Oracle.Transfer} check and a casualty ledger for destroyed
    entries; the soak drives seed-pinned random corruption schedules
    into mid-handover transfers through the replicated matrix runner. *)

val name : string

val link : Scenario.config
(** The short, fast link E22 and E24 share: 150 km at 100 Mbit/s, 400
    frames of 512 B offered at half the line rate, a 0.5 s horizon, and
    I-frame / control-frame BERs of 1e-6 / 1e-7 (E24 runs it
    noiseless). *)

type variant = Lams | Sr_hdlc | Nbdt_bulk
(** The three variants E22 and E24 compare; the CLI's [corrupt run] and
    [feedback run] name them by {!variant_tag}. *)

val variant_tag : variant -> string

val variants : variant list

val session : variant -> Scenario.session
(** The variant's session on {!link}: LAMS-DLC with a 1 ms checkpoint
    interval and C_depth 3, SR-HDLC with a 1.5 RTT timeout, NBDT with a
    1 ms report interval. *)

val classes : (string * Dlc.Corrupt.klass) list
(** The six timed corruption classes with canonical arguments, keyed by
    their stable tag (["nak-truncate"], ["reverse-replay"], ...).
    Carryover staleness (the seventh class) is exercised by
    {!run_handover}. *)

val spec_of : Dlc.Corrupt.klass -> Dlc.Corrupt.spec
(** One injection of [klass] at the canonical mid-stream instant. *)

type outcome = {
  variant : string;
  spec : string;
  injected : int;  (** injections actually applied *)
  skipped : int;  (** injections on an inapplicable surface *)
  converged : int;  (** suspect windows closed by k clean checkpoints *)
  time_to_convergence : float;
      (** worst closed window: injection to last tolerated anomaly *)
  tolerated : int;
  declared_failure : bool;
  unconverged : bool;  (** a window was still open (with anomalies) at end *)
  completed : bool;
  delivered : int;
  violations : Oracle.violation list;  (** the first 200 *)
  violation_count : int;  (** all of them *)
}

val run_one :
  ?recorder:Trace.Recorder.t ->
  ?k:int ->
  ?frames:int ->
  seed:int ->
  variant ->
  Dlc.Corrupt.spec ->
  outcome
(** One single-session run under the given corruption schedule, with the
    convergence-mode oracle attached for the whole run. Captures a trace
    when {!Trace.Config} is set (or records into [recorder]). [k]
    overrides the variant's convergence budget; [k = 0] is the tripwire
    setting — no suspect window ever opens, so every in-run anomaly is a
    real violation. [frames] overrides the stream length (compact golden
    traces). *)

type handover_outcome = {
  outcome : outcome;
      (** variant ["handover"]; [delivered] counts the messages
          reassembled at the sink *)
  casualties : int;  (** payloads destroyed by corruption, exempted losses *)
  sessions : int;
}

val run_handover :
  ?recorder:Trace.Recorder.t -> seed:int -> Dlc.Corrupt.spec -> handover_outcome
(** One multi-window transfer ({!E21_handover.transfer} with 100 kB
    messages) with the corruption schedule dispatched into whichever
    session is live, carryover rules corrupting close-time snapshots,
    and {!Oracle.Transfer} in convergence mode with destroyed entries on
    the casualty ledger. *)

val carryover_spec : Dlc.Corrupt.spec
(** Canonical carryover corruption: drop 1 entry, flip the survivors'
    verdicts, at the first session close. *)

val outcome_metrics : outcome -> (string * float) list
(** The outcome as a matrix metric vector; [oracle_violations] is
    {!outcome.violation_count}. *)

val handover_metrics : handover_outcome -> (string * float) list
(** {!outcome_metrics} of the run's [outcome]. *)

val points : quick:bool -> Runner.point list

val soak_experiment : schedules:int -> Runner.experiment
(** The mid-handover corruption soak's schedules ({!Soak.corrupt}): one
    matrix point per schedule, each an adversary script derived from the
    replicate's seed. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the E22 report from its matrix run. *)
