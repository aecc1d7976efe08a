(** Growable bit vectors, MSB-first.

    The FEC coders work on bit streams rather than bytes. [Bitbuf] is the
    shared carrier: append bits, read by index, convert to/from byte
    strings (zero-padded to a byte boundary on conversion out). *)

type t

val create : unit -> t

val make : int -> t
(** [make n] is a vector of [n] zero bits, allocated in one shot —
    the hot-path constructor for coders that know their output length
    up front ({!set} the bits in place rather than {!push}ing). *)

val of_string : string -> t
(** Bits of the string, MSB-first per byte. *)

val to_string : t -> string
(** Pads the final partial byte with zero bits. *)

val fill_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
(** [fill_bytes t b ~pos ~len] replaces [t]'s contents with the
    [8 * len] bits of [b[pos..pos+len)] — the in-place counterpart of
    {!of_string} for hot paths that refill one scratch buffer per frame.
    Allocates only when the buffer must grow. *)

val bytes : t -> Bytes.t
(** The backing byte buffer, borrowed: the first
    [(length t + 7) / 8] bytes hold the bits MSB-first. Invalidated by
    any later call that grows the buffer; mutating it changes the bits.
    The in-place counterpart of {!to_string}. *)

val blit_prefix : t -> t -> bits:int -> unit
(** [blit_prefix dst src ~bits] replaces [dst]'s contents with the first
    [bits] bits of [src] — the in-place counterpart of
    [sub ~pos:0 ~len:bits]. Whole-byte blit rather than per-bit copy;
    trailing bits of a partial final byte are zeroed. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool

val set : t -> int -> bool -> unit

val push : t -> bool -> unit

val append : t -> t -> unit
(** [append dst src] pushes all bits of [src] onto [dst]. *)

val sub : t -> pos:int -> len:int -> t
