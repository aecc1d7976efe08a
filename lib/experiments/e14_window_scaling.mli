(** E14 — What it would take for SR-HDLC to match LAMS-DLC: window
    scaling.

    §2.3's numbering-size argument quantified: the 4,000 km / 300 Mbit/s
    pipe holds ~1,000 frames, so HDLC needs a window (and number space,
    and receive buffer) of bandwidth-delay-product size before its duty
    cycle approaches 1. The sweep grows [seq_bits]/[window] from the
    standard modulo-128 towards BDP scale and reports efficiency plus the
    receive-buffer cost HDLC pays that LAMS-DLC's out-of-order delivery
    avoids. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report. It ignores the matrix experiment and runs
    its own sessions at the default seed, because the receive-buffer
    peak is not a matrix metric. *)
