(** E18 — Type-I hybrid ARQ: FEC under the ARQ (paper §1).

    In a Type-I scheme every I-frame is FEC-encoded before transmission:
    the code rate taxes every frame, but the residual frame error
    probability (and with it the retransmission rate) collapses. The
    experiment calibrates each code's residual FER with the bit-exact
    {!Channel.Coded_path}, folds the result into the event-driven LAMS
    simulation (longer effective frames, lower effective error rate), and
    sweeps channel BER to locate the crossover where coding starts to
    pay — the §1 trade-off between redundancy overhead and
    retransmission cost. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
