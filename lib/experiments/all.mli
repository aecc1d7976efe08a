(** Registry of all experiments, for the bench harness and the CLI. *)

type t = {
  id : string;
  name : string;
  report :
    quick:bool -> Bench_report.Matrix_report.experiment -> Format.formatter -> unit;
      (** The text report, rendered from this experiment's matrix run. *)
  points : quick:bool -> Runner.point list;
      (** Parameter points for the replicated matrix runner. *)
}

val all : t list

val find : string -> t option
(** Case-insensitive lookup by id ("e1" ... "e24"). *)

val matrix : ?quick:bool -> t list -> Runner.experiment list
(** Package experiments for {!Runner.run}. [quick] defaults to false. *)

val report : quick:bool -> Format.formatter -> Bench_report.Matrix_report.t -> unit
(** Print a matrix report as text: the {!Report.matrix} header, then the
    report of each experiment it holds, in its order. [quick] must be
    the mode the matrix ran in, so each report walks the same grid. *)
