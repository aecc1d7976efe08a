(** A deterministic, reproducible protocol disaster for trace demos.

    The E7 family of experiments asks what happens when the recovery
    machinery itself is degraded. This module builds the canonical
    guaranteed-loss case on a clean channel: a LAMS-DLC receiver with an
    {e empty} NAK-cumulation window ([c_depth = 0] — rejected by
    [Params.validate], so the halves are wired directly) facing a
    scripted drop of one I-frame. The receiver never advertises the
    gap, the next checkpoint's [next_expected] sweeps past it, the
    sender releases an undelivered payload, and the oracle trips
    [released-undelivered] — every run, same instant, same events.

    A {!Trace.Recorder} watches the whole thing, so the returned flight
    dump ends at the violation with the dropped frame's transmission,
    the fault hit and the fatal release still in the ring. *)

type outcome = {
  recorder : Trace.Recorder.t;
  violations : Oracle.violation list;  (** finalized, chronological *)
}

val run :
  ?seed:int ->
  ?frames:int ->
  ?capacity:int ->
  ?drop:int ->
  ?recorder:Trace.Recorder.t ->
  unit ->
  outcome
(** Defaults: seed 7, 20 frames, ring capacity {!Trace.Config.default_capacity},
    drop the single first copy of frame [5]. The run is driven to
    quiescence on a loss-free 100 Mbit/s, 1,000 km link. An explicit
    [recorder] (e.g. one owned by a {!Trace.Capture}) replaces the
    internally created one; [capacity] is then ignored. *)
