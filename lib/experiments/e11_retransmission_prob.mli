(** E11 — Retransmission probability: [P_R = P_F] vs
    [P_R = P_F + P_C − P_F·P_C].

    The §2 argument for NAK-only control. To expose the acknowledgement
    term, the control channel is degraded until a control command is as
    error-prone as an I-frame (the paper's piggybacking case
    [P_C = P_F]); the measured per-transmission retransmission fraction
    is then compared with both closed forms. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
