(** Cyclic sequence numbers.

    LAMS-DLC assigns a fresh sequence number at every (re)transmission, so
    the numbering size only has to cover the bounded resolving period
    (paper §3.3); HDLC reuses the number of the original transmission and
    needs window-relative comparison. Both live on the same cyclic
    arithmetic, parameterised by the modulus [2^bits].

    Values are represented as plain [int]s in [0, modulus). All operations
    are modulus-aware. *)

type space
(** A numbering space ([modulus = 2^bits]). *)

val space : bits:int -> space
(** Requires [1 <= bits <= 30]. *)

val succ : space -> int -> int

val add : space -> int -> int -> int

val sub : space -> int -> int -> int
(** [sub sp a b] is the forward distance from [b] to [a]: the unique
    [d] in [0, modulus) with [add sp b d = a]. *)

val in_window : space -> lo:int -> size:int -> int -> bool
(** [in_window sp ~lo ~size x]: does [x] lie in the half-open cyclic
    interval [lo, lo+size)? Requires [0 <= size <= modulus]. *)
