(** E15 — FEC residual error rates (the substrate behind assumptions 4
    and the §2.1 codec discussion).

    Runs real frames through the bit-level coded path
    ({!Channel.Coded_path}): encode, FEC, exact bit flips, decode. Shows
    (a) how each code shrinks the residual frame error rate under random
    errors — the justification for carrying control frames on a stronger
    code — and (b) how interleaving converts mispointing bursts from
    fatal to correctable (Paul et al., the paper's burst-to-random
    argument). *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
