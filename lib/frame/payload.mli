(** I-frame payloads as descriptors: a short {e stem} plus a length.

    The byte image of a payload is its stem padded with ['x'] up to its
    length. Synthetic traffic ({!Workload.Arrivals.default_payload})
    carries an 11-byte stem naming the frame index; a network-layer
    fragment is all stem. Every layer that only needs a frame's identity
    and size — sizing, fates, protocol state machines, probes, oracles —
    passes the descriptor around; bytes are built only where they are
    read (the codec, netstack message decoding).

    Descriptors are canonical: the stem never ends in ['x'] (the
    constructors strip it into the fill). Two payloads are therefore
    {!equal}, and hash alike, exactly when their byte images are equal,
    so a descriptor is a sound hash-table key for the bytes it stands
    for. *)

type t

val make : stem:string -> len:int -> t
(** [make ~stem ~len]: the image is [stem] followed by
    [len - String.length stem] fill bytes. Raises [Invalid_argument]
    when [len < String.length stem]. *)

val of_string : string -> t
(** The payload whose byte image is the string. *)

val to_string : t -> string
(** The byte image; allocates [length] bytes. *)

val empty : t

val length : t -> int
(** Bytes in the image. *)

val prefix : t -> int -> string
(** [prefix p n]: the first [min n (length p)] bytes of the image. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit p b pos] writes the image into [b] at [pos] without
    allocating. Raises [Invalid_argument] when it does not fit. *)

val equal : t -> t -> bool
(** Byte-image equality. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by payload, hashing the stem only. *)

(** Dense ids for payloads, in first-seen order: an observer keeps
    per-frame state in flat arrays indexed by the id its payload gets
    here. Looking a payload up or adding one allocates nothing, and the
    stem is hashed without a runtime call; the table allocates only
    when it doubles. Payloads are never removed. *)
module Index : sig
  type payload = t

  type t

  val create : unit -> t

  val length : t -> int
  (** Payloads added so far; ids run from 0 to [length t - 1]. *)

  val add : t -> payload -> int
  (** The payload's id, adding it first when it is new. *)
end
