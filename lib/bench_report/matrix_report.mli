(** Machine-readable experiment-matrix results.

    The JSON artifact written by [lams_dlc_cli experiments run --json]:
    per experiment, per parameter point, one {!stat} per metric, folded
    over [replicates] independent channel realisations. The document
    splits into a {b deterministic part} — schema version, root seed,
    replicate count, all results, fully determined by
    [(experiments, points, replicates, root_seed)] and independent of
    [--jobs] — and optional run {!meta} (host, timestamp, worker count),
    which can be omitted at write time so byte-level diffs of two runs
    compare only results. *)

type stat = {
  count : int;  (** replicates folded in (see {!Stats.Online.count}) *)
  mean : float;
  stddev : float;
  ci95 : float;  (** 95% confidence half-width for the mean *)
  min : float;
  max : float;
}

type point = {
  label : string;  (** parameter-point label, e.g. ["ber=1e-5/lams"] *)
  metrics : (string * stat) list;
}

type experiment = { id : string; name : string; points : point list }

type meta = {
  jobs : int;  (** worker count the run used; does not affect results *)
  git_rev : string;
  ocaml_version : string;
  host : string;
  timestamp : string;  (** UTC, ISO-8601 *)
}

type t = {
  schema_version : int;
  root_seed : int;  (** every task seed derives from this *)
  replicates : int;
  experiments : experiment list;
  meta : meta option;
}

val schema_version : int
(** Current schema: 1. *)

val collect_meta : jobs:int -> meta
(** Snapshot run metadata: short git revision, compiler version, host
    name and UTC timestamp (["unknown"] where unavailable). Never
    raises. *)

val stat_of_online : Stats.Online.t -> stat

val to_json : ?with_meta:bool -> t -> Json.t
(** [with_meta] defaults to [true]; [false] emits only the deterministic
    part (also the case when [t.meta] is [None]). *)

val write : ?with_meta:bool -> string -> t -> unit
(** Write pretty-printed JSON (trailing newline) to the path. *)
