(** I-frame payloads as descriptors, in one of two forms.

    - {b Synthetic}: an offer index and a length. The byte image is the
      index as ten zero-padded decimal digits, a ['|'], then ['x'] fill:
      what {!synthetic} (and so {!Workload.Arrivals.default_payload})
      builds from 11 bytes and below 10^10. It holds no string.
    - {b Stem}: a short stem plus a length. The image is the stem padded
      with ['x'] up to the length: synthetic images cut below 11 bytes or
      with a wider index, network-layer fragments, HDLC phantoms, test
      strings.

    Every layer that only needs a frame's identity and size — sizing,
    fates, protocol state machines, probes, oracles — passes the
    descriptor around; bytes are built only where they are read (the
    codec, netstack message decoding).

    Descriptors are canonical: a stem never ends in ['x'] (the
    constructors strip it into the fill), and {!make} and {!of_string}
    return the synthetic form for a synthetic image. Two payloads are
    therefore {!equal}, and hash alike, exactly when their byte images
    are equal, so a descriptor is a sound hash-table key for the bytes it
    stands for, and a payload rebuilt from its image (a decoded frame),
    or from a prefix that holds its whole stem (a trace label), equals
    the original. The offer index ({!index}) names a synthetic frame
    across renumbered retransmissions; hashing and comparing one reads
    two ints and no string. *)

type t

val make : stem:string -> len:int -> t
(** [make ~stem ~len]: the image is [stem] followed by
    [len - String.length stem] fill bytes. Raises [Invalid_argument]
    when [len < String.length stem]. *)

val of_string : string -> t
(** The payload whose byte image is the string. *)

val synthetic : index:int -> len:int -> t
(** [synthetic ~index ~len]: the payload whose image is the first [len]
    bytes of [Printf.sprintf "%010d|" index], followed by fill. It is in
    the synthetic form when [index < 10^10] and [len >= 11], else a stem.
    Raises [Invalid_argument] when [index] or [len] is negative. *)

val to_string : t -> string
(** The byte image; allocates [length] bytes. *)

val empty : t

val length : t -> int
(** Bytes in the image. Allocates nothing. *)

val index : t -> int
(** The offer index of a payload in the synthetic form; -1 for a stem.
    Allocates nothing. *)

val prefix : t -> int -> string
(** [prefix p n]: the first [min n (length p)] bytes of the image,
    built without building the rest. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit p b pos] writes the image into [b] at [pos] without
    allocating. Raises [Invalid_argument] when it does not fit. *)

val equal : t -> t -> bool
(** Byte-image equality. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by payload: the hash reads the stem or the index,
    never the fill, and allocates nothing. *)

(** Dense ids for payloads, in first-seen order: an observer keeps
    per-frame state in flat arrays indexed by the id its payload gets
    here. Looking a payload up or adding one allocates nothing; the
    index allocates only when its tables double. Payloads are never
    removed. *)
module Index : sig
  type payload = t

  type t

  val create : unit -> t

  val length : t -> int
  (** Payloads added so far; ids run from 0 to [length t - 1]. *)

  val add : t -> payload -> int
  (** The payload's id, adding it first when it is new. *)

  val key : t -> int -> payload
  (** [key t id]: the payload that got [id]. Raises [Invalid_argument]
      for an id not given out yet. *)
end
