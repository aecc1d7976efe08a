(** E12 — Bounded numbering size.

    §3.3: renumbered retransmissions bound any frame's unresolved life to
    the resolving period [R + W_cp/2 + C_depth·W_cp], so the span of
    simultaneously outstanding sequence numbers never needs to exceed
    [resolving period / t_f] (plus the in-flight pipe). The experiment
    records the peak observed span under saturation and checks it against
    the bound across checkpoint intervals. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
