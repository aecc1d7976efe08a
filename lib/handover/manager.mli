(** Session manager: one logical transfer across many link lifetimes.

    Owns a {!Lifecycle} over one reused {!Channel.Duplex} and runs a
    fresh {!Lams_dlc.Session} inside every contact window. Payloads
    offered while the link is dark (or while the window's session buffer
    is full) queue in a manager-level buffer; at window open the buffer
    drains into the new session; at window close (or on a mid-window
    failure declaration) a {!Carryover} snapshot drains the dying
    session back to the {e front} of the buffer, preserving offer order.
    A sender that declares failure while the window is still open gets a
    successor session in the same window.

    All sessions share one {!Dlc.Probe}, so a trace recorder or the
    cross-handover {!Oracle} transfer check sees the whole journey as a
    single stream. Do {e not} attach a per-session LAMS oracle profile
    to it: wire numbering restarts with every session. *)

type stats = {
  mutable windows_opened : int;
  mutable sessions_created : int;
  mutable mid_window_failures : int;
      (** sender failure declarations that forced a same-window successor *)
  mutable carried_over : int;  (** payloads drained at session close *)
  mutable suspicious_carried : int;
  mutable delivered : int;
}

type t

val create :
  ?probe:Dlc.Probe.t ->
  Sim.Engine.t ->
  params:Lams_dlc.Params.t ->
  duplex:Channel.Duplex.t ->
  plan:Plan.t ->
  t
(** The plan's transitions are armed immediately; offer payloads before
    or after {!Sim.Engine.run} starts, as suits the caller. *)

val offer : t -> Frame.Payload.t -> bool
(** [false] only once the lifecycle is [Failed]; otherwise the payload
    is delivered to the current session or buffered. The manager-level
    buffer is unbounded — it models the network layer's queue, whose
    sizing is the router's concern, not the DLC's. *)

val set_corruptor :
  ?on_casualty:(Frame.Payload.t -> unit) -> t -> Dlc.Corrupt.t -> unit
(** Install a state-corruption schedule ({!Dlc.Corrupt}) across the
    whole transfer. Timed injections dispatch to whichever session is
    live when they fire (skipped between windows); [Carryover_stale]
    rules corrupt the snapshot taken at the next session close —
    dropped-entry payloads are destroyed state, reported to
    [on_casualty] so the caller can exempt them from conservation
    checks (see [Oracle.Transfer.declare_casualty]). Call once, before
    {!Sim.Engine.run}. *)

val set_on_deliver : t -> (payload:Frame.Payload.t -> unit) -> unit
(** Receiver-side upward deliveries, across all sessions. May see
    duplicates of [`Suspicious] carryovers; dedup belongs to the
    destination {!Netstack.Resequencer}. *)

val set_on_suspicious_replay : t -> (Frame.Payload.t -> unit) -> unit
(** Fires once per [`Suspicious] payload re-offered after a carryover —
    the duplicate budget for observers like [Oracle.Transfer]. *)

val lifecycle : t -> Lifecycle.t

val retained : t -> Frame.Payload.t list
(** Every payload in the manager-level buffer, oldest first. A live
    session's unresolved frames are not included — call {!stop} first to
    fold them in for an exact end-of-run accounting. *)

val stats : t -> stats

val stop : t -> unit
(** Cancel the lifecycle and snapshot any live session into the buffer;
    after this {!retained} is exact and no further events fire. *)
