(** Arithmetic in GF(2^8) with primitive polynomial 0x11D
    (x^8 + x^4 + x^3 + x^2 + 1), the field under Reed–Solomon coding. *)

val add : int -> int -> int
(** Addition = subtraction = XOR. *)

val mul : int -> int -> int

val div : int -> int -> int
(** Raises [Division_by_zero] when the divisor is 0. *)

val inv : int -> int
(** Multiplicative inverse; raises [Division_by_zero] on 0. *)

val alpha_pow : int -> int
(** [alpha_pow i] = α^i for the primitive element α = 2; any integer
    exponent (reduced mod 255). *)

val poly_eval : int array -> int -> int
(** Evaluate a polynomial (coefficients lowest-degree first) at a
    point. *)

val poly_mul : int array -> int array -> int array

val poly_add : int array -> int array -> int array
