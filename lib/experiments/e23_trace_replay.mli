(** E23 — Trace replay vs calibrated Gilbert–Elliott twin.

    The Kuhn et al. cross-layer result (PAPERS.md) reproduced in-repo:
    record frame-fate traces at the E6/E8/E15/E18 operating points (plus
    scripted mispointing-storm and eclipse channels), replay each
    through a full LAMS session, rerun under the {!Calibrate}-fitted
    Gilbert–Elliott twin, and tabulate how far the synthetic twin's
    throughput diverges from the trace's. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
