(** E16 — Link lifetime, retargeting overhead, and deliverable volume.

    The paper's §1 motivation: a LAMS crosslink exists for minutes and
    retargeting the laser terminal consumes a significant share of that
    lifetime, so the DLC must maximise throughput inside the window.
    Using the orbit substrate, this experiment finds a real contact
    window for a constellation pair, shrinks it by a swept retargeting
    overhead, runs both protocols inside the remaining lifetime over the
    pair's true time-varying geometry, and reports frames safely
    delivered before the window closes. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
