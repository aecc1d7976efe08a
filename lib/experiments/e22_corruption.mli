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

type variant = Lams | Sr_hdlc | Nbdt_bulk

val variant_tag : variant -> string

val variants : variant list

val convergence_k : variant -> int
(** Per-variant suspect-window budget, in checkpoint emissions (LAMS
    checkpoints / NBDT reports are periodic; HDLC supervisory frames are
    per-arrival, hence the larger budget). *)

val classes : (string * Dlc.Corrupt.klass) list
(** The six timed corruption classes with canonical arguments, keyed by
    their stable {!Dlc.Corrupt.klass_name} tag. Carryover staleness (the
    seventh class) is exercised by {!run_handover}. *)

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
  violations : Oracle.violation list;
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
  h_spec : string;
  messages_completed : int;
  h_injected : int;
  h_skipped : int;
  h_converged : int;
  h_time_to_convergence : float;
  h_tolerated : int;
  casualties : int;  (** payloads destroyed by corruption, exempted losses *)
  h_declared : bool;
  h_unconverged : bool;
  sessions : int;
  h_violations : Oracle.violation list;
}

val run_handover :
  ?recorder:Trace.Recorder.t -> seed:int -> Dlc.Corrupt.spec -> handover_outcome
(** One multi-window transfer (the E21 geometry) with the corruption
    schedule dispatched into whichever session is live, carryover rules
    corrupting close-time snapshots, and {!Oracle.Transfer} in
    convergence mode with destroyed entries on the casualty ledger. *)

val carryover_spec : Dlc.Corrupt.spec
(** Canonical carryover corruption: drop 1 entry, flip the survivors'
    verdicts, at the first session close. *)

val outcome_metrics : outcome -> (string * float) list
(** The outcome as a matrix metric vector; [oracle_violations] counts
    {!outcome.violations}. *)

val handover_metrics : handover_outcome -> (string * float) list
(** Likewise for a handover run; [oracle_violations] counts
    [h_violations]. *)

val points : quick:bool -> Runner.point list

val soak_spec : seed:int -> Dlc.Corrupt.spec
(** The soak's seed-derived adversary schedule (exposed so the fuzz
    tests can reuse the derivation). *)

val soak_experiment : schedules:int -> Runner.experiment
(** The mid-handover corruption soak's schedules ({!Soak.corrupt}): one
    matrix point per {!soak_spec} schedule. *)

val run : ?spec:Dlc.Corrupt.spec -> ?quick:bool -> Format.formatter -> unit
(** Print the E22 report. [spec] (e.g. loaded from a [--corrupt-script]
    file via {!Dlc.Corrupt.load}) replaces the canonical per-class
    one-shot schedules: every variant, and the handover row, then runs
    the whole script. *)
