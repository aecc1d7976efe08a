(** The seed-pinned soaks: handover (E21), corrupt (E22) and feedback
    (E24).

    Each harness pairs its schedule experiment — one matrix point per
    random schedule, derived from the point's own task seed, so results
    and captured traces are byte-identical for any [--jobs] — with its
    safety rule. The rule judges one run's metric vector: the CLI's
    [X run] applies it to its run's {!Scenario.checked} metrics, and
    [X soak] to every point of the report. It fails closed: a vector that lacks a metric the rule
    reads is unsafe, so a renamed metric cannot silently disable the
    gate. *)

type harness = {
  schedules : string;  (** what a schedule randomises, e.g. ["blackout"] *)
  experiment : schedules:int -> Runner.experiment;
  safe : (string * float) list -> bool;
  violation : string;
      (** what an unsafe point is, e.g. ["oracle violations"] *)
}

val handover : harness
(** Random blackout schedules over E21's contact plan; safe when
    [oracle_violations] is 0. *)

val corrupt : harness
(** Random adversary corruption schedules over E22's mid-handover
    transfer; safe when [oracle_violations] is 0. *)

val feedback : harness
(** Random lie schedules over all three variants with the guard on
    (E24); safe when [wrongful_releases] is 0 and the run [completed]
    or [failure_declared]. *)

val run :
  ?jobs:int ->
  ?root_seed:int ->
  schedules:int ->
  harness ->
  Bench_report.Matrix_report.t
(** One replicate of every schedule through {!Runner.run}. *)

val unsafe_points : harness -> Bench_report.Matrix_report.t -> string list
(** Labels of the points whose metric maxima break the rule, in report
    order. *)
