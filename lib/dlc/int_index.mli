(** Dense ids for integer keys, in first-seen order.

    Observers keep per-sequence-number state (last transmission time,
    delivery count, NAK run) in flat arrays indexed by the id this table
    gives a wire number. Looking a key up or adding one allocates
    nothing; the table only allocates when it doubles. Keys are never
    removed: an id is also the key's insertion ordinal. *)

type t

val create : unit -> t

val length : t -> int
(** Keys added so far; ids run from 0 to [length t - 1]. *)

val find : t -> int -> int
(** The key's id, or [-1] when it was never added. *)

val add : t -> int -> int
(** The key's id, adding the key first when it is new. *)

val key : t -> int -> int
(** The key with this id. *)
