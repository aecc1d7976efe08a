(** A FIFO of ints: a growable ring. Pushing and popping allocate
    nothing; the ring allocates only when it doubles. The senders queue
    buffer slots or packed sequence numbers in it. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val nth : t -> int -> int
(** The [i]-th element from the front, [0 <= i < length]. *)

val push : t -> int -> unit

val pop : t -> int
(** Take the front element of a non-empty ring. *)

val clear : t -> unit
