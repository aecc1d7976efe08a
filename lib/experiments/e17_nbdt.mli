(** E17 — NBDT (paper §1, ref [7]) vs LAMS-DLC.

    NBDT already fixes HDLC's numbering problem (absolute numbers, no
    window) and acknowledges selectively, so it is the strongest §1
    baseline. The remaining differences are exactly the paper's design
    points: positive-acknowledgement release (holding time ≈ report
    round trip for every frame) and, in multiphase mode, the
    transmit/retransmit alternation. The sweep compares continuous and
    multiphase NBDT with LAMS-DLC on efficiency, holding time and buffer
    peaks. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
