(** E8 — Burst errors (Gilbert–Elliott mispointing model).

    §3.3: cumulative NAKs keep LAMS-DLC alive through bursts provided
    [C_depth·W_cp > burst length]; shorter coverage degenerates into
    enforced recoveries. Burst duration is swept across that boundary and
    compared against SR-HDLC under the identical channel. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
