(** Uniform experiment output formatting.

    Every experiment's text report renders from its matrix run: a
    simulated cell is the replicate mean of one metric at one point
    ({!cell}), and a derived cell is computed from such means
    ({!mean}). *)

val section : Format.formatter -> id:string -> title:string -> unit
(** Banner line naming the experiment. *)

val note : Format.formatter -> string -> unit

val table : Format.formatter -> Stats.Table.t -> unit

val ratio : float -> float -> float
(** [ratio a b = a /. b], guarding the zero denominator with [nan]. *)

val cell : Bench_report.Matrix_report.experiment -> string -> string -> string
(** [cell e label key]: the mean of metric [key] at point [label] of
    [e] (in full when it is a whole number, else to four significant
    digits), followed by [+-] and its 95% confidence half-width when
    more than one replicate was folded in. Raises [Failure] naming the
    experiment, point and metric when [e] lacks either. *)

val mean : Bench_report.Matrix_report.experiment -> string -> string -> float
(** The replicate mean {!cell} prints, for derived cells. *)

val count : Bench_report.Matrix_report.experiment -> string -> string -> int
(** The number of replicates folded into that mean. *)

val matrix :
  ?render:(Format.formatter -> Bench_report.Matrix_report.experiment -> unit) ->
  Format.formatter ->
  Bench_report.Matrix_report.t ->
  unit
(** A whole matrix report: one line naming the replicate count and root
    seed, then [render] of each experiment. The default [render] prints
    the experiment's banner and one generic table of every point and
    metric (the soaks' text output). *)
