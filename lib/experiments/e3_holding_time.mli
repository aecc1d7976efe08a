(** E3 — Mean sending-buffer holding time [H_frame].

    Validates [H = s̄·(R + t_f + t_c + t_proc + (n̄_cp - 1/2)·I_cp)]
    against the measured residency of released frames, swept over BER and
    over the checkpoint interval (shorter [I_cp] ⇒ shorter holding —
    the paper's "buffer control" §3.4). *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
