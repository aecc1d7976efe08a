(** Semantic protocol event bus.

    {!Tracer} sees the wire; the probe sees the {e meaning}: what the
    sender and receiver state machines decided. Protocol implementations
    publish buffer-lifecycle and recovery transitions here so that
    observers — above all the invariant {!module:Oracle} in
    [lib/oracle] — can check safety properties online without reaching
    into protocol internals.

    Every session owns a probe (a fresh one is created when none is
    passed in). The six per-frame kinds have typed emit calls
    ({!offered}, {!tx}, {!released}, {!requeued}, {!delivered},
    {!cp_emitted}) that pass unboxed fields to each subscriber's
    {!handlers} record and build no event value. An emit to a probe
    with no subscriber allocates nothing, so emitters call them
    unguarded. Typed emits carry no timestamp: handlers read {!now},
    the clock of the engine bound with {!set_clock}. The rare kinds go
    through {!emit} with an explicit [~now].

    Handlers fire synchronously, in subscription order, whichever way
    they were subscribed and whichever way the event was emitted: a
    trace recorder subscribed before an oracle sees an event before the
    violation it triggers. *)

type link_state = Link_up | Link_retargeting | Link_down | Link_failed
(** Lifecycle of the physical link as seen by the handover layer:
    contact open, laser retargeting at contact start, inter-contact gap,
    or permanently failed (schedule exhausted). *)

type event =
  | Offered of { payload : Frame.Payload.t }
      (** accepted into the sending buffer *)
  | Tx of { seq : int; payload : Frame.Payload.t; retx : bool }
      (** serialisation of one copy started under wire number [seq] *)
  | Released of { seq : int; payload : Frame.Payload.t }
      (** sending buffer slot freed: the protocol believes [seq] was
          received (LAMS-DLC: a checkpoint passed it without NAK) *)
  | Requeued of { seq : int; payload : Frame.Payload.t }
      (** transmission [seq] written off; the payload awaits
          retransmission (under a fresh number in LAMS-DLC/NBDT) *)
  | Delivered of { seq : int; payload : Frame.Payload.t }
      (** receiver passed the payload to the upper layer *)
  | Recovery_started  (** sender began enforced/timeout recovery *)
  | Recovery_completed
  | Failure_declared
      (** the sender exhausted its retry budget and declared the link
          failed (LAMS-DLC publishes this before invoking its
          [set_on_failure] callback) *)
  | Link_transition of { state : link_state }
      (** the handover {!module:Lifecycle} moved the link to [state];
          published on the session probe so flight recordings show
          contact-window boundaries inline with protocol events *)
  | Cp_emitted of {
      cp_seq : int;
      next_expected : int;
      enforced : bool;
      stop_go : bool;
      naks : int array;
    }
      (** the receiver issued acknowledgement state: a LAMS checkpoint
          (possibly a Check-Point-NAK or Enforced-NAK), an NBDT status
          report, or an HDLC supervisory frame ([cp_seq] is then an
          emission ordinal, [next_expected] the N(R), and [naks] the
          rejected number for REJ/SREJ). [naks] is the frame's own
          array, ascending, read in place and never mutated. Emitted at
          creation, before the frame enters the reverse link, so
          observers see the receiver's decision upstream of any channel
          loss. *)
  | State_corrupted of { klass : string; detail : string }
      (** {!module:Corrupt} injected a fault of class [klass] directly
          into live session state; [detail] records what was mutated.
          Observers in convergence mode open a suspect window here. *)
  | Converged of { after : float; anomalies : int }
      (** a convergence-mode oracle closed its suspect window: all
          invariants were re-established within the checkpoint bound,
          [after] seconds after the injection, having tolerated
          [anomalies] transient anomalies in between. *)
  | Cp_quarantined of { cp_seq : int; reason : string; distrust : int }
      (** the {!module:Guard} plausibility layer rejected a feedback
          frame: [cp_seq] names the suspect checkpoint (or emission
          ordinal for HDLC), [reason] the failed check, [distrust] the
          escalation counter after this quarantine. The frame was
          discarded — the sender's state machine never saw it. *)
  | Resync_forced of { attempt : int }
      (** the guard's distrust counter crossed its threshold and the
          sender was ordered into an explicit resynchronisation
          (Enforced-NAK recovery for LAMS, a forced retransmission
          round for NBDT, a supervisory poll for HDLC); [attempt]
          counts forced resyncs since the guard last trusted the
          feedback stream. *)

type t

val create : unit -> t

val set_clock : t -> Sim.Engine.t -> unit
(** Stamp typed emits with this engine's time. Senders and receivers
    bind their engine at creation; until then {!now} reads [0.]. *)

val now : t -> float
(** The time of the event being dispatched. Typed handlers read it here
    rather than as an argument, which would box it. *)

val clock : t -> float array
(** The one-element array that {!now} reads. A handler that must not
    box the time, even where {!now} is not inlined, reads element 0 of
    [clock p] while it runs; the array itself changes between events. *)

(** Per-kind handlers of one subscriber. [other] receives every kind
    without a typed emit, with its timestamp. *)
type handlers = {
  offered : Frame.Payload.t -> unit;
  tx : seq:int -> payload:Frame.Payload.t -> retx:bool -> unit;
  released : seq:int -> payload:Frame.Payload.t -> unit;
  requeued : seq:int -> payload:Frame.Payload.t -> unit;
  delivered : seq:int -> payload:Frame.Payload.t -> unit;
  cp_emitted :
    cp_seq:int ->
    next_expected:int ->
    enforced:bool ->
    stop_go:bool ->
    naks:int array ->
    unit;
  other : now:float -> event -> unit;
}

val no_handlers : handlers
(** Every handler ignores its event; override the fields you need. *)

val listen : t -> handlers -> unit
(** Subscribe a handler record. *)

val subscribe : t -> (now:float -> event -> unit) -> unit
(** Subscribe one callback for every kind. Typed emits then build the
    event and box the time for it, so per-frame observers use
    {!listen}. *)

val offered : t -> Frame.Payload.t -> unit

val tx : t -> seq:int -> payload:Frame.Payload.t -> retx:bool -> unit

val released : t -> seq:int -> payload:Frame.Payload.t -> unit

val requeued : t -> seq:int -> payload:Frame.Payload.t -> unit

val delivered : t -> seq:int -> payload:Frame.Payload.t -> unit

val cp_emitted :
  t ->
  cp_seq:int ->
  next_expected:int ->
  enforced:bool ->
  stop_go:bool ->
  naks:int array ->
  unit
(** The typed emits: [cp_emitted p ~cp_seq ...] is
    [emit p ~now:(now p) (Cp_emitted { cp_seq; ... })], without the
    event value, and likewise for the other five. *)

val emit : t -> now:float -> event -> unit
(** Publish any event at [now]. A per-frame kind is split into its
    fields and dispatched to the typed handlers, which read [now]
    through {!now} while they run. Allocates nothing itself. *)
