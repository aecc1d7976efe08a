(** Replicated experiment-matrix runner.

    Takes experiments × parameter points × [replicates], gives every
    (experiment, point, replicate) task an independent RNG seed via
    {!Sim.Rng.derive_seed} — seed = f(root_seed, experiment id, point
    label, replicate index), no shared mutable generator — runs the
    tasks across OCaml 5 domains (see {!Pool}; sequential on 4.14), and
    folds each metric through {!Stats.Online} into mean / stddev / 95%
    CI per point.

    {b Determinism contract}: the result depends only on
    [(experiments, replicates, root_seed)]. Tasks are self-contained
    (each builds its own engine and RNG from its derived seed) and the
    fold happens in the fixed task order after all tasks complete, so
    [~jobs:1] and [~jobs:n] produce identical results — byte-identical
    JSON once {!Bench_report.Matrix_report} meta is stripped.

    Trace capture rides on the same contract: when the CLI activates
    [Trace.Config] before [run], each replicate writes its JSONL trace
    to a file content-addressed by the task's own configuration (never
    by worker or order), so the trace directory is also byte-identical
    for any [jobs] value. *)

module Pool : module type of Pool
(** The worker pool backing {!run}, re-exported for callers that need
    {!Pool.default_jobs}. *)

type point = { label : string; run : seed:int -> (string * float) list }
(** One parameter point. [run ~seed] executes a single replicate with
    the given derived seed and returns its metrics as [name, value]
    pairs. Every replicate of a point must return the same metric names
    in the same order ({!run} raises [Invalid_argument] otherwise). The
    function must be pure up to its seed: no global mutable state, no
    wall clock — it may be called from any domain, in any order. *)

type experiment = { id : string; name : string; points : point list }

val task_count : replicates:int -> experiment list -> int

val run :
  ?jobs:int ->
  ?root_seed:int ->
  replicates:int ->
  experiment list ->
  Bench_report.Matrix_report.t
(** Execute the matrix. [jobs] defaults to {!Pool.default_jobs}
    (clamped to at least 1); [root_seed] defaults to 1; [replicates]
    must be >= 1. The report's [meta] is [None]; callers that want run
    metadata attach {!Bench_report.Matrix_report.collect_meta}
    themselves. Raises [Invalid_argument] on duplicate experiment ids
    or inconsistent metric sets across replicates; re-raises the first
    exception of any failed task. *)
