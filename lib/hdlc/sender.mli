(** HDLC sender half (SR or GBN per {!Params.mode}).

    Mechanics implemented (following the paper's §4 description of the
    baseline):

    - sliding window of [window] unacknowledged frames; sequence numbers
      are cyclic and {e reused} on retransmission (in-sequence constraint);
    - the frame that exhausts the window carries the P bit, soliciting an
      immediate RR/REJ response — HDLC checkpointing;
    - cumulative RR(n) acknowledges everything cyclically below [n];
    - SREJ(n) selectively retransmits frame [n] (SR mode); REJ(n) rolls
      transmission back to [n] (GBN mode);
    - one retransmission timer ([t_out]) on the oldest unacknowledged
      frame drives timeout recovery; its retransmissions set the P bit;
    - a frame retried more than 10 times (HDLC's N2) declares the link
      failed. *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  forward:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t

val offer : t -> Frame.Payload.t -> bool

val on_rx : t -> Channel.Link.rx -> unit
(** Feed reverse-direction arrivals (RR/REJ/SREJ). *)

val backlog : t -> int

val in_window : t -> int
(** Currently unacknowledged frames. *)

val window_stalled : t -> bool
(** Window full: transmission blocked awaiting acknowledgement. *)

val v_s : t -> int
(** Send state variable V(S) — ground truth for {!Dlc.Guard}. *)

val v_a : t -> int
(** Acknowledgement state variable V(A) — ground truth for
    {!Dlc.Guard}. *)

val is_outstanding : t -> int -> bool
(** The number is in flight and unacknowledged — ground truth for
    {!Dlc.Guard}. *)

val force_resync : t -> unit
(** {!Dlc.Guard} escalation hook: resend the oldest unacknowledged
    frame with a poll (the timeout-recovery exchange) without charging
    it a retry; the Final response completes the recovery. No-op when
    failed, stopped, or nothing is unacknowledged. *)

val force_failure : t -> unit
(** Declare link failure now — the terminal {!Dlc.Guard} escalation. *)

val note_delivered : t -> int -> unit
(** Add the delay since the original offer of the payload travelling
    under [seq] to the [delivery_delay] metric; no-op when [seq] is not
    in flight. The session layer calls it on every delivery. *)

val stop : t -> unit

val scramble_send_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): jump V(S) forward
    by up to [delta], materialising the skipped numbers as phantom
    in-flight frames (never transmitted); SREJ/REJ recovery then
    fabricates them. [None] when the window has no room. *)

val duplicate_buffer_entry : t -> string option
(** State-corruption injection point: queue an extra (same-number)
    retransmission of an in-flight frame. [None] when none is in
    flight. *)
