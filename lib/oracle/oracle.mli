(** Always-on protocol-invariant checker.

    An oracle watches one session from the outside — the semantic
    {!Dlc.Probe} stream plus a passive tap on the reverse link — and
    checks the safety properties the paper argues for, online, while
    any test or experiment runs:

    - {b no loss}: a sending-buffer slot may be released only for a
      payload the receiver has delivered (LAMS-DLC's implicit positive
      acknowledgement — a checkpoint that passed the frame without
      NAKing it); a release of an undelivered payload is the
      catastrophic silent-loss case;
    - {b implicit-ACK causality} (LAMS-DLC, NBDT): a released sequence
      number must lie below the [next_expected] / frontier of some
      checkpoint the receiver has already issued;
    - {b no duplication beyond copies sent}: a payload may be delivered
      at most once per transmitted copy; SR/GBN-HDLC must deliver
      exactly once and in offer order;
    - {b numbering sanity}: LAMS-DLC wire numbers are fresh and strictly
      increasing (§3.2); HDLC numbers stay inside the cyclic space and
      the send window; NBDT numbers are stable across retransmissions;
    - {b bounded holding} (LAMS-DLC): the interval from a frame's last
      transmission to its release stays within the resolving period
      [R + w_cp/2 + c_depth * w_cp] (§3.3), except across an enforced
      recovery;
    - {b NAK cumulation} (LAMS-DLC): the receiver re-advertises each
      erroneous sequence number in exactly [c_depth] {e consecutive}
      regular checkpoints (§3.1), counted at the point of emission so
      channel loss cannot mask a receiver bug;
    - {b checkpoint monotony}: [cp_seq] strictly increases,
      [next_expected] never regresses.

    Violations are collected, not raised, so one run reports every
    broken invariant: {!finalize} runs the end-of-run checks and
    {!violations} lists them.

    {b Convergence mode} ({!set_convergence}): for self-stabilisation
    experiments that corrupt live session state on purpose (Dolev et
    al.), every {!Dlc.Probe.State_corrupted} event opens a {e suspect
    window} during which violations are downgraded to tolerated
    anomalies. The window closes once [k] checkpoints have been emitted
    since the last injection — a {!Dlc.Probe.Converged} event is then
    published carrying the time from injection to the last anomaly — or
    when the protocol declares failure (a legitimate stabilisation
    outcome). [k = 0] never opens a window, so every post-injection
    anomaly stays a real violation: the tripwire that proves the oracle
    still bites. {!Transfer} runs the same window across handovers. *)

type profile =
  | Lams of { c_depth : int; holding_bound : float }
      (** [holding_bound]: see {!Lams_dlc.Params.resolving_period};
          callers add slack for serialisation and processing time. *)
  | Hdlc of { window : int; seq_bits : int }
  | Nbdt

type violation = {
  time : float;  (** simulated time of detection *)
  invariant : string;  (** stable machine-readable name *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t

val create : ?name:string -> profile -> t
(** [name] is ignored: nothing reads it. It stays until perfbench, which
    still passes it, drops it. *)

val set_on_violation : t -> (violation -> unit) -> unit
(** Hook fired synchronously on {e every} violation (including those past
    the recording cap), before control returns to the protocol. A trace
    flight recorder uses this to snapshot its ring at the first fault. *)

val observe : t -> Dlc.Probe.t -> unit
(** Subscribe to a session's semantic events. Convergence mode publishes
    {!Dlc.Probe.Converged} on the probe whose checkpoint closed the
    window. *)

val set_convergence : t -> k:int -> unit
(** Enable convergence mode: tolerate a suspect window after each
    injection and require invariants to be re-established within [k]
    checkpoint emissions. Raises [Invalid_argument] when [k < 0].
    Post-mortem (finalize-time) aggregate checks are tolerated whenever
    at least one injection was seen, since they cannot be attributed to
    any one window. *)

(** What the suspect windows of a convergence-mode checker saw, from
    either checker ({!convergence}, {!Transfer.convergence}); all zero
    when convergence mode is off. *)
type convergence = {
  times : float list;
      (** time-to-convergence of each window closed by [k] clean
          checkpoints, chronological: the interval from injection to the
          last tolerated anomaly (0 when the injection caused no
          observable anomaly) *)
  tolerated : int;  (** anomalies absorbed by suspect windows *)
  declared : bool;
      (** some window was closed by a declared failure rather than by
          [k] clean checkpoints *)
  unconverged : bool;
      (** a window with anomalies was still open at finalize — the run
          ended before stabilisation; a ["non-convergence"] violation is
          recorded too *)
}

val convergence : t -> convergence

val observe_reverse : t -> Channel.Link.t -> unit
(** Tap the reverse (receiver-to-sender) link to watch checkpoints and
    status reports as they are {e emitted} — upstream of any loss.
    Installed with {!Channel.Link.add_tap}, so it coexists with tracers. *)

val attach : t -> probe:Dlc.Probe.t -> duplex:Channel.Duplex.t -> unit
(** [observe] + [observe_reverse duplex.reverse]. *)

val finalize : t -> unit
(** End-of-run checks (NAK-cumulation runs truncated by session stop are
    exempted). Idempotent. *)

val violations : t -> violation list
(** Chronological. Meaningful any time; complete after {!finalize}. The
    list keeps the first 200 violations; {!violation_count} counts them
    all. *)

val violation_count : t -> int
(** Every violation recorded so far, past the list's cap too. *)

val wrongful_releases : t -> int
(** Violations of the no-wrongful-release invariant
    (["released-undelivered"] / ["release-before-ack"]), all of them. *)

(** Cross-handover no-loss / no-duplicate check, spanning session
    instances.

    A handover manager runs a fresh LAMS-DLC session per contact window
    over one shared probe; wire numbering restarts with each session, so
    the per-session profiles above cannot watch the whole journey. This
    checker tracks {e payloads} across the stream instead:

    - {b conservation}: every payload ever offered is delivered at least
      once, or still retained by the handover layer at finalisation —
      nothing silently vanishes at a window boundary;
    - {b bounded duplication}: a payload may be delivered at most once
      per offer, and more than once overall only if some carryover
      classified it [`Suspicious] (§3.3) — a duplicate of a
      [`Not_delivered] payload means the handoff verdict was wrong;
    - {b sink uniqueness}: past the destination resequencer (the
      continuity witness), each message completes exactly once — feed
      completions to {!Transfer.on_sink}. *)
module Transfer : sig
  type t

  val create : unit -> t

  val observe : t -> Dlc.Probe.t -> unit
  (** Subscribe to the handover manager's shared probe. *)

  val mark_suspicious : t -> Frame.Payload.t -> unit
  (** Grant the payload a duplicate budget; wire this to
      [Handover.Manager.set_on_suspicious_replay]. *)

  val on_sink : t -> now:float -> int -> unit
  (** Report a completed message id from the destination resequencer. *)

  val sessions_spanned : t -> int
  (** Link-up transitions seen — the number of contact windows (and
      same-window successor sessions) the stream crossed. *)

  val failures_declared : t -> int

  val set_convergence : t -> k:int -> unit
  (** Convergence mode across handovers, with the same window discipline
      as {!Oracle.set_convergence}. Unlike the per-session oracle there
      is no post-mortem tolerance: end-of-run losses attributable to
      corruption must be exempted through {!declare_casualty} (or the
      automatic released-while-suspect inference); any other
      transfer-loss stays a real violation. *)

  val declare_casualty : t -> Frame.Payload.t -> unit
  (** Record a payload destroyed by an injected corruption (e.g. an
      unresolved-buffer entry dropped from a poisoned
      {!Handover.Carryover} snapshot). Its end-of-run loss is counted in
      {!casualties_lost} instead of violating conservation. *)

  val convergence : t -> convergence

  val casualties_lost : t -> int
  (** Offered payloads neither delivered nor retained whose loss was
      covered by the casualty ledger. *)

  val finalize : ?retained:Frame.Payload.t list -> t -> unit
  (** End-of-run conservation check; [retained] lists payloads the
      handover layer still holds (see [Handover.Manager.retained]),
      which are exempt from the loss check. Idempotent. *)

  val violations : t -> violation list
  (** The first 200, chronological. *)

  val violation_count : t -> int
  (** All of them, past the list's cap too. *)
end

(** Feedback-safety ledger for Byzantine-feedback experiments.

    The headline invariant — {e no wrongly-released data, ever} — is
    already enforced by the base oracle: ["released-undelivered"] fires
    at release time, and ["release-before-ack"] compares against
    checkpoint {e emission} (the reverse-link tap), which sits upstream
    of the lie-injection point and therefore never ingests a forgery;
    {!Oracle.wrongful_releases} counts its violations. This ledger
    aggregates the degradation story around that invariant:
    how much lying the channel did, how the {!Dlc.Guard} layer reacted
    (quarantines, forced resyncs, declared failure), how long each
    disturbance episode took to resolve, and a bucketed goodput series
    for blackout-floor measurements. *)
module Feedback : sig
  type t

  val create : unit -> t
  (** Goodput is bucketed by 1 ms of delivery time. *)

  val observe : t -> Dlc.Probe.t -> unit
  (** Subscribe to the session probe: counts
      {!Dlc.Probe.Cp_quarantined} / {!Dlc.Probe.Resync_forced}, closes
      disturbance episodes on recovery completion or declared failure,
      and buckets deliveries for {!goodput_floor}. *)

  val on_fault : t -> now:float -> lie:bool -> unit
  (** Report a reverse-channel fault hit; wire to
      [Channel.Fault.set_observer] with
      [lie = Channel.Fault.is_lie action]. Opens a disturbance episode
      when none is open. *)

  val mark_disturbance : t -> now:float -> unit
  (** Open a disturbance episode explicitly (e.g. at the scripted start
      of a blackout window, which produces no per-frame fault hit until
      the next frame flies). *)

  val faults_seen : t -> int

  val lies_seen : t -> int

  val quarantines : t -> int

  val resyncs : t -> int

  val failure_declared : t -> bool

  val resync_times : t -> float list
  (** Chronological: for each resolved episode, the time from its first
      disturbance to the recovery completion that resolved it. *)

  val unresolved : t -> bool
  (** A disturbance episode was still open when the run ended. *)

  val goodput_floor : t -> lo:float -> hi:float -> float
  (** Minimum bucketed delivery rate (payload bits/s) over the buckets
      entirely inside [\[lo, hi)]; [nan] when no whole bucket fits. *)
end
