(** Sets of sequence numbers as sorted, disjoint runs: the LAMS-DLC
    receiver's NAK ledger.

    A set is a list of maximal runs [[lo, hi]] of consecutive seqs, kept
    ascending in two int columns, plus the count of seqs. LAMS-DLC
    renumbers every retransmission (§3.2), so the seqs a receiver finds
    erroneous arrive in increasing order, and a mispointing burst makes
    them consecutive: the common insert extends the last run or appends
    a new one, O(1) and allocation-free once the columns have grown to
    their working size. Any other insert (the out-of-order and duplicate
    marks that state-corruption injections produce) is a binary search
    that inserts a run, extends one, or joins two. One run costs two
    words, however many seqs it holds. *)

type t

val create : unit -> t
(** An empty set. *)

val length : t -> int
(** The number of seqs, O(1). *)

val clear : t -> unit
(** Empty the set, keeping its capacity. *)

val add : t -> int -> unit
(** Insert; a no-op when the element is already present. *)

val to_array : t -> int array
(** The elements, ascending, in a fresh array. *)

val union_to_array : t array -> oldest:int -> int array
(** The union of the sets, ascending and duplicate-free, in a fresh
    array. The sets form a ring whose oldest is at index [oldest]: when
    the sets, taken oldest first, are ordered and disjoint (each one's
    least element above the previous one's greatest), the union is their
    concatenation; otherwise it is a merge. *)
