(** E2 — Low-traffic total delivery time [D_low(N)].

    A batch of [N] frames is offered at once and the time to deliver all
    of them safely is measured, against the §4 closed forms
    [D_low^LAMS(N)] and [D_low^HDLC] (windowed for [N > W]). *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
