(** E5 — Headline result: high-traffic throughput efficiency vs. N.

    The paper's closing comparison: [η_LAMS] grows towards 1 with channel
    traffic because transmission overlaps retransmission, while
    [η_HDLC] stays pinned by the per-window resolve periods. Closed forms
    and saturating-traffic simulation, both protocols. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
