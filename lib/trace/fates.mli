(** Capture live frame fates from a link into a replayable channel
    trace.

    A fates recorder taps a {!Channel.Link} and notes each frame's
    observed fate in arrival order — [Tap_rx] status maps to
    clean/payload-corrupt/header-corrupt, [Tap_lost] to lost — giving a
    {!Channel.Trace_model} trace of what the (synthetic or scripted)
    channel actually did to a session. Saved traces feed the replay
    backend and {!Channel.Calibrate}, closing the record → replay →
    calibrate loop on live simulations.

    Only data frames are captured: the replayed trace then pairs with a
    clean control channel, matching the paper's strong-FEC control-frame
    assumption. *)

type t

val create : unit -> t

val attach : t -> Channel.Link.t -> unit
(** Adds a tap ({!Channel.Link.add_tap}); existing taps keep firing. *)

val length : t -> int
(** Frames captured so far. *)

val save : ?comment:string -> t -> string -> unit
(** Write the captured trace in the v1 trace-file format. *)
