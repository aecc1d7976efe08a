(** Sets of sequence numbers as sorted, duplicate-free, growable int
    vectors: the LAMS-DLC receiver's NAK ledger.

    LAMS-DLC renumbers every retransmission (§3.2), so the seqs a
    receiver finds erroneous arrive in increasing order: the common
    insert is an append past the largest element, O(1) and
    allocation-free once the vector has grown to its working size. Any
    other insert — the out-of-order and duplicate marks that
    state-corruption injections produce — is a binary search plus a
    shift. One entry costs one word. *)

type t

val create : unit -> t
(** An empty set. *)

val length : t -> int

val clear : t -> unit
(** Empty the set, keeping its capacity. *)

val add : t -> int -> unit
(** Insert; a no-op when the element is already present. *)

val to_list : t -> int list
(** The elements, ascending. *)

val union_to_list : t array -> int list
(** The union of the sets, ascending and duplicate-free. *)
