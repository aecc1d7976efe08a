(** E4 — Transparent buffer size: [B_LAMS] finite vs [B_HDLC = ∞].

    Both protocols are driven at line rate ([1/t_f] arrivals). The paper
    predicts LAMS-DLC's sending-buffer occupancy stabilises near
    [B_LAMS = H/t_f], while SR-HDLC's backlog grows without bound because
    every window ends in a resolve period during which arrivals
    accumulate (§4). The run measures occupancy at several horizons: a
    bounded protocol shows a flat profile, an unbounded one a growing
    profile. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
