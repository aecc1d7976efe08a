(** E1 — Mean number of transmission periods [s̄] vs. channel BER.

    Reproduces the §4 result [s̄_LAMS = 1/(1-P_F)] vs.
    [s̄_HDLC = 1/(1-(P_F+P_C-P_F·P_C))]: the NAK-only scheme needs fewer
    rounds per frame. The simulated value is (first transmissions +
    retransmissions) / frames delivered. *)

val name : string

val points : quick:bool -> Runner.point list
(** BER sweep × {lams, hdlc} for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
