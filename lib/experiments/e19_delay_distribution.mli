(** E19 — delivery-delay distribution at moderate load.

    The paper's introduction frames the design space as the trade-off
    between user throughput and user delay. This experiment offers both
    protocols the same 50%-of-line-rate stream and reports the full
    delivery-delay distribution (mean, p50, p95, p99, max): LAMS-DLC's
    delay is one-way flight plus checkpoint quantisation, while SR-HDLC
    spreads between instant (in-window) and multiple round trips
    (window-stalled or timeout-recovered), fattening the tail. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
