(** Bounded work pool over OCaml 5 domains, with a sequential fallback.

    The implementation is selected at build time (see the dune rules):
    on OCaml >= 5 [map] fans work out across [Domain]s, on 4.14 it
    degrades to [Array.map]. Callers must not depend on execution order
    — only on the result array, which is always in input order. *)

val default_jobs : unit -> int
(** A sensible worker count for this machine:
    [Domain.recommended_domain_count] on OCaml 5, [1] on the sequential
    build. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] applies [f] to every element of [a], using up to
    [jobs] workers, and returns the results in input order. [jobs <= 1]
    runs sequentially in the calling domain. Work items must be
    self-contained (no shared mutable state) — the whole point of the
    runner's per-task seed derivation. If any application raises, one of
    the raised exceptions is re-raised after all workers have stopped. *)
