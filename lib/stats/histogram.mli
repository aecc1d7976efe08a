(** Fixed-bin histogram with percentile queries.

    Linear bins over [lo, hi); observations outside the range land in
    under/overflow counters so nothing is silently dropped. Suitable for
    latency and queue-length distributions where the range is known a
    priori. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Requires [lo < hi] and [bins > 0]. *)

val add : t -> float -> unit

val count : t -> int
(** Total observations, including under/overflow. *)

val bins : t -> int
(** Number of regular bins (the [bins] passed to {!create}). *)

val underflow : t -> int

val overflow : t -> int

val bin_count : t -> int -> int
(** Count in the [i]-th bin; raises [Invalid_argument] out of range. *)

val bin_bounds : t -> int -> float * float
(** [(lo, hi)] of the [i]-th bin. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100]: linear-interpolated estimate
    from bin midpoints. Underflow maps to [lo], overflow to [hi].
    [nan] when empty. *)

val mean_estimate : t -> float
(** Mean estimated from bin midpoints. *)
