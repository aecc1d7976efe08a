(** Streaming univariate statistics.

    Welford's online algorithm: numerically stable single-pass mean and
    variance, plus min/max and count. Use one accumulator per measured
    quantity (holding time, delivery delay, ...). *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val stddev : t -> float

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val ci95_halfwidth : t -> float
(** Half-width of a Student-t 95% confidence interval for the mean
    ([t_{0.975, n-1} * stddev / sqrt n]); [0.] with fewer than two
    samples. The critical value is exact for [n - 1 <= 30] and tapers
    stepwise to the normal 1.96 for large [n], so small replicate counts
    no longer get normal-width (over-confident) intervals. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering: count, mean ± ci, min, max. *)

val to_json_string : t -> string
(** The accumulator as a JSON object with [count], [mean], [stddev],
    [min], [max] and [sum] fields; non-finite values (empty accumulator)
    render as [null]. *)
