(** Uniform experiment output formatting. *)

val section : Format.formatter -> id:string -> title:string -> unit
(** Banner line naming the experiment. *)

val note : Format.formatter -> string -> unit

val table : Format.formatter -> Stats.Table.t -> unit

val ratio : float -> float -> float
(** [ratio a b = a /. b], guarding the zero denominator with [nan]. *)

val matrix : Format.formatter -> Bench_report.Matrix_report.t -> unit
(** Human-readable rendering of a whole matrix report. *)
