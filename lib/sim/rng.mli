(** Deterministic pseudo-random number generation for simulations.

    The implementation is SplitMix64 (Steele, Lea & Flood 2014): a tiny,
    fast, well-distributed 64-bit generator whose state is a single integer.
    Every simulation component takes an explicit [Rng.t] so that runs are
    reproducible from a seed and independent streams can be split off
    without correlation. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one stream per stochastic component (channel, arrivals, ...) so
    that changing one component's draw count does not perturb others. *)

val derive_seed : root:int -> string list -> int
(** [derive_seed ~root path] hashes [root] and the path components into a
    non-negative seed. Replicated experiments use it to give every
    (experiment, point, replicate) task an independent stream —
    [f root ["e6"; "ber=1e-5"; "3"]] — with no shared mutable RNG, so a
    task's draws never depend on scheduling order. The mapping is pure
    64-bit arithmetic: stable across runs, platforms and OCaml versions.
    Distinct paths give (with overwhelming probability) unrelated
    streams; a component list is length-prefixed, so [["ab"; "c"]] and
    [["a"; "bc"]] differ. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). Requires [x > 0.]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. [p] is clamped to
    [0, 1]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. Requires
    [mean > 0.]. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] is the number of Bernoulli(p) trials up to and
    including the first success (support 1, 2, ...). Requires
    [0. < p <= 1.]. *)

val binomial : t -> n:int -> p:float -> int
(** Number of successes in [n] Bernoulli(p) trials. Exact (O(n)) for small
    [n]; for large [n], exact CDF inversion when [n * min p (1-p)] is small
    (the low-BER regime where a normal approximation would round every
    draw to 0) and a normal approximation otherwise. Suitable for sampling
    bit-error counts in long frames at any BER. *)
