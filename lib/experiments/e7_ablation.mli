(** E7 — Ablation: checkpoint interval [W_cp] and cumulation depth
    [C_depth].

    §3.3's trade-offs: a short interval shrinks holding time (and hence
    the transparent buffer) but spends more reverse-channel capacity and
    increases exposure to command loss; a deeper cumulation tolerates
    longer checkpoint-loss runs but delays failure detection
    ([c_depth·w_cp] silence threshold). Measures efficiency, holding
    time, control frames and enforced recoveries across the grid. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
