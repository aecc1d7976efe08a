(** LAMS-DLC receiver half (paper §3).

    Responsibilities:

    - accept I-frames and pass them {e up immediately}, out of order —
      the in-sequence constraint is relaxed (§2.3); the destination
      resequences;
    - detect erroneous frames: a payload-corrupt frame is identified by
      its (header-protected) sequence number; wholly lost or
      unidentifiable frames are discovered by gaps in the sequence-number
      stream, which is strictly increasing because LAMS-DLC renumbers
      retransmissions;
    - issue a Check-Point command every [w_cp] seconds carrying the
      Stop-Go bit, the next-expected sequence number and the cumulative
      NAK list of the last [c_depth] intervals;
    - answer Request-NAK immediately with an Enforced-NAK (§3.2);
    - model receiving-buffer occupancy for flow control: arrivals queue
      and drain at [recv_drain_rate] (or after [t_proc] when unlimited),
      driving the Stop-Go hysteresis between the watermarks. *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  reverse:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t
(** Starts the periodic checkpoint schedule immediately: the paper's
    receiver sends commands "so long as the link is active". Deliveries
    are published on [probe]. *)

val on_rx : t -> Channel.Link.rx -> unit
(** Feed an arrival from the forward link. *)

val set_on_deliver : t -> (payload:Frame.Payload.t -> seq:int -> unit) -> unit

val next_expected : t -> int

val outstanding_naks : t -> int array
(** The NAK ledger, ascending, in a fresh array: every sequence number
    ever found erroneous, plus the current interval's errors — exactly
    the set an Enforced-NAK would advertise right now. *)

val queue_length : t -> int
(** Current modelled receiving-buffer occupancy. *)

val stop_state : t -> bool
(** Current Stop-Go output ([true] = Stop). *)

val checkpoints_sent : t -> int

val stop : t -> unit
(** Cease the periodic checkpoint schedule (end of link lifetime). *)

val scramble_recv_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): shift the
    expected frontier by [delta] (clamped at 0). Forward jumps swallow
    in-flight frames; backward jumps re-NAK delivered ones. *)

val poison_nak_ledger : t -> seqs:int list -> string option
(** State-corruption injection point: insert phantom erroneous seqs
    ([seqs] are offsets relative to [next_expected]) into the ledger. *)

val truncate_nak_ledger : t -> string option
(** State-corruption injection point: erase the entire error ledger,
    cumulation history included — pending loss reports are forgotten. *)
