(** E9 — Enforced recovery and failure detection under link blackouts.

    A blackout of duration [d] is injected mid-transfer. §3.2 predicts:
    the sender notices after at most [C_depth·W_cp] of checkpoint
    silence, halts new I-frames and sends Request-NAK; if the link
    returns before the failure timer (expected response +
    [C_depth·W_cp]) expires, the Enforced-NAK resumes the transfer with
    {e zero loss}; otherwise the sender declares link failure. The
    experiment sweeps [d] across that boundary and also reports SR-HDLC
    under the same blackout. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
