(** E20 — end-to-end messages over a multi-hop store-and-forward subnet.

    §2.3's architectural argument: relaxing in-sequence delivery lets
    every subnet node forward out-of-order frames immediately and pushes
    resequencing to the destination, so intermediate nodes hold almost
    nothing. The experiment sends fragmented messages across a chain of
    lossy LAMS-DLC or SR-HDLC hops and reports end-to-end message latency
    and the destination resequencer's buffer cost. *)

val name : string

val points : quick:bool -> Runner.point list
(** Parameter points for the replicated matrix runner. *)

val report :
  quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit
(** Print the text report from the experiment's matrix run. *)
