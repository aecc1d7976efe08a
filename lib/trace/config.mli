(** Process-wide trace capture configuration.

    The matrix runner's worker pool calls each point's [run] closure
    with nothing but a seed, and its determinism contract forbids
    shared mutable state between tasks. Trace capture therefore rides
    along as a {e read-only} global: the CLI sets it once before
    {!Runner.run} and every scenario consults it. File names are
    content-addressed from the run's own configuration, so two workers
    that somehow execute identical tasks write identical bytes to the
    identical path — order cannot matter.

    {!set} must not be called while runs are in flight. *)

type t = {
  dir : string;  (** directory receiving the [.jsonl] files; created lazily *)
}

val set : t option -> unit

val get : unit -> t option

val basename : proto:string -> seed:int -> fingerprint:string -> string
(** [trace-<proto>-seed<seed>-<digest12>] — no extension; the scenario
    appends [.jsonl], [.metrics.json] or [.flight.jsonl]. [fingerprint]
    is any string that pins down the run (parameters, fault script
    descriptions, flags); it is digested, never written out. *)

val write_atomic : path:string -> string -> unit
(** Write via a unique temp file in the target directory plus [rename],
    so concurrent writers of the same path can only ever publish a
    complete file. Creates the directory (one level) if missing. *)
