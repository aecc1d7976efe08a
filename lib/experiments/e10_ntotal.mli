(** E10 — High-traffic transmission inflation [N_total(N)].

    Validates the §4 subperiod recursion for the total number of
    transmissions (news + retransmissions) against the simulator's
    transmission counters, and against the asymptote [N·s̄]. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
