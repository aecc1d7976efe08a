(** Multi-hop store-and-forward network over DLC sessions.

    Each directed edge is served by one {!Dlc.Session.t} (protocol of the
    caller's choice — this is how the examples run LAMS-DLC and HDLC
    under identical topologies). Every node forwards transit fragments to
    the next hop from a static shortest-path table; the destination node
    resequences and deduplicates with a {!Resequencer} (paper §2.3: the
    subnet is unordered, the destination restores order).

    A fragment refused by a busy outgoing session waits in the node's
    store-and-forward queue and is retried. *)

type t

val create : Sim.Engine.t -> nodes:int -> t
(** [nodes] >= 1 node ids, [0 .. nodes-1]. *)

val add_link :
  t -> a:int -> b:int -> ab:Dlc.Session.t -> ba:Dlc.Session.t -> unit
(** Register a bidirectional link: [ab] carries a->b traffic, [ba] the
    reverse. Overwrites any previous link between the pair. *)

val compute_routes : t -> unit
(** (Re)build all-pairs next-hop tables by BFS over the current links.
    Call after the last [add_link]. *)

val reachable : t -> src:int -> dst:int -> bool

val send_message : t -> src:int -> dst:int -> mtu:int -> string -> int
(** Fragment and inject a message at [src]; returns its message id.
    Raises [Invalid_argument] if no route exists. *)

val set_on_message :
  t -> (dst:int -> src:int -> msg_id:int -> body:string -> unit) -> unit
(** Delivery callback, fired once per completed message. *)

val fragments_in_transit : t -> int
(** Fragments somewhere in the subnet: node queues plus resequencer
    buffers (does not include frames inside DLC senders). *)

val resequencer : t -> int -> Resequencer.t
(** Per-node resequencer (for buffer-cost inspection). *)
