(** E13 — ARQ family comparison: GBN, GBN+Stutter, SR, SR+Stutter,
    LAMS-DLC.

    The paper's §1 motivates LAMS-DLC against the classic family,
    including the stutter variants (Stutter GBN [1]; Miller & Lin's
    SR+ST [3]) that also try to exploit idle time. This experiment runs
    all five under the identical channel across a BER sweep: stutter
    recovers part of the window-stall waste, but only LAMS-DLC removes
    the stall itself. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
