(** Message framing for the multi-hop network layer.

    In the subnet a message is partitioned into multiple I-frames
    (paper §2.3); because LAMS-DLC delivers out of order, each fragment
    carries enough metadata for the destination to resequence and
    deduplicate. The encoding is a plain text header (easy to debug)
    followed by the body chunk. *)

type fragment = {
  msg_id : int;
  src : int;
  dst : int;
  index : int;  (** 0-based fragment number *)
  count : int;  (** total fragments of the message *)
  body : string;
}

val fragment_message :
  msg_id:int -> src:int -> dst:int -> mtu:int -> string -> fragment list
(** Split a message body into fragments of at most [mtu] body bytes.
    Requires [mtu > 0]. An empty message yields one empty fragment. *)

val encode : fragment -> string

val decode : string -> (fragment, string) result
(** Inverse of [encode]; [Error] describes the malformation. *)
