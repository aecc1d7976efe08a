(* Sequential fallback, built on OCaml 4.14 where [Domain] does not
   exist (see dune rules; pool_domains.ml is the multicore version).
   Same contract, one worker. *)

let default_jobs () = 1

let map ~jobs:_ f a = Array.map f a
