(** Capture one run's full trace: a {!Recorder} whose every event is
    buffered as JSONL, plus its {!Metrics} sidecar and, when a violation
    froze one, its flight dump.

    A capture publishes three files under a path [P]:

    - [P] — the full event stream,
    - [P.metrics.json] — the {!Metrics} summary,
    - [P.flight.jsonl] — the flight dump, when a violation froze one.

    Files are written atomically ({!Config.write_atomic}), so concurrent
    workers executing identical tasks can only ever publish identical
    complete files.

    Two forms: {!create} for an explicit path or in memory (the CLI's
    [--trace FILE], the golden registry, tests), and {!around} for the
    process-wide {!Config}'s content-addressed layout, where the stream
    goes to [<base>.jsonl] and the sidecars to [<base>.metrics.json] and
    [<base>.flight.jsonl], with [<base>] from {!Config.basename}. *)

type t

val create : unit -> t
(** An explicit-path or in-memory capture. *)

val recorder : t -> Recorder.t

val outputs : t -> path:string -> (string * string) list
(** The [(file, content)] pairs {!write} would publish under [path]. *)

val write : t -> path:string -> unit
(** Publish [path], [path.metrics.json] and, on violation,
    [path.flight.jsonl]. *)

val around :
  ?recorder:Recorder.t ->
  proto:string ->
  seed:int ->
  fingerprint:(unit -> string) ->
  (Recorder.t option -> 'a) ->
  'a
(** [around ?recorder ~proto ~seed ~fingerprint run] is [run recorder]
    when the caller records itself or {!Config} is unset. Otherwise [run]
    records into a content-addressed capture under
    [<dir>/<base>] ([<base>] from {!Config.basename}, with [fingerprint]
    called once), published as [<base>.jsonl], [<base>.metrics.json] and
    [<base>.flight.jsonl] after [run] returns. *)
