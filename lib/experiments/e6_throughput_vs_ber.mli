(** E6 — Throughput efficiency vs. channel BER.

    The high-error-environment claim: [s̄_HDLC > s̄_LAMS] grows with error
    rate, so the efficiency gap widens as the channel degrades. Fixed
    saturating traffic, BER swept across the paper's laser-link range
    (1e-7 … 1e-4). *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
