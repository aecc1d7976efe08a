(** Registry of all experiments, for the bench harness and the CLI. *)

type t = {
  id : string;
  name : string;
  run : ?quick:bool -> Format.formatter -> unit;
  points : quick:bool -> Runner.point list;
      (** Parameter points for the replicated matrix runner. *)
}

val all : t list

val find : string -> t option
(** Case-insensitive lookup by id ("e1" ... "e24"). *)

val matrix : ?quick:bool -> t list -> Runner.experiment list
(** Package experiments for {!Runner.run}. [quick] defaults to false. *)

val run_all : ?quick:bool -> ?jobs:int -> Format.formatter -> unit
(** Print every experiment's report in registry order. Reports are
    rendered concurrently across [jobs] workers (each into a private
    buffer) and printed sequentially, so the text is identical for any
    job count. [jobs] defaults to {!Runner.Pool.default_jobs}. *)
