(** Priority queue of timestamped events.

    Events live in an {e arena} of reusable slots (struct-of-arrays:
    times, tie-break sequence numbers, payloads) recycled through a free
    list, so steady-state scheduling allocates nothing. Pending events
    are ordered by one 4-ary min-heap on [(time, seq)], where [seq]
    numbers the events in the order they were added (or their numbers
    reserved, see {!reserve_seq}): events with equal timestamps pop in
    that order, the determinism contract the simulations depend on.

    The queue stays small: a link keeps its frames in flight in its own
    ring and queues only the earliest arrival ({!Engine.pending}), so a
    plain heap is as fast as a timer wheel would be, and simpler.

    Handles are generation-tagged integers: a stale handle (slot since
    recycled) is detected and refused. Cancellation removes the event
    from the heap at once, in O(log n), so a restarted timer leaves no
    dead entry behind, and a cancelled or fired event's payload slot is
    reset to the queue's [dummy] so the queue never pins dead
    payloads. *)

type 'a t
(** Queue holding payloads of type ['a]. *)

type id
(** Handle naming a scheduled event, usable for cancellation. Handles
    are generation-tagged: once the event fires or is cancelled, the
    handle goes stale and all further operations on it return [false]. *)

val never : id
(** A handle that names no event: [cancel]/[is_pending] on it return
    [false]. The idle value for "maybe armed" fields (e.g. {!Timer}),
    avoiding an [option] allocation per arm. *)

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty queue. [dummy] is the inert payload
    written into vacated slots (popped, cancelled, or freshly grown) so
    the arena retains no reference to dead payloads; it is never
    handed to {!pop_run}'s [k]. [capacity] (default 256) sizes the initial
    arena; it grows on demand. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of pending events. *)

val next_seq : 'a t -> int
(** The tie-break number the next added event will get: the count of
    numbers handed out so far. Reading it consumes nothing. *)

val last_seq : 'a t -> int
(** The tie-break number of the event {!pop_run} removed last, set
    before {!pop_run} calls [k] on it; [-1] before the first
    pop. *)

val add_cell : 'a t -> cell:float array -> aux:int -> 'a -> id
(** [add_cell q ~cell ~aux v] schedules [v] at [cell.(0)] with an
    auxiliary integer stored (unboxed) alongside the payload and handed
    back by {!pop_run}: room for a dispatch tag or a small argument
    without a wrapper. The caller stores the time
    into a one-element float array, unboxed, and this call reads it
    back: a float argument to a call that is not inlined would be boxed
    on non-flambda builds. {!Engine}'s inlined [schedule*] functions use
    it. *)

val reserve_seq : 'a t -> int
(** Take the next tie-break number now, for an event added later with
    {!add_reserved}: the number {!next_seq} reads, which it then moves
    past. *)

val add_reserved : 'a t -> cell:float array -> seq:int -> aux:int -> 'a -> id
(** {!add_cell} with a number taken earlier by {!reserve_seq}, so the
    event sorts among equal-time events as if it had been added when
    its number was taken. Each reserved number is to be used at most
    once. Raises [Invalid_argument] if [seq] was never handed out. *)

val cancel : 'a t -> id -> bool
(** [cancel q id] removes the event if it is still pending. Returns
    [false] when the event already fired, was already cancelled, or the
    handle is stale. *)

val is_pending : 'a t -> id -> bool
(** Whether the handle names an event that has neither fired nor been
    cancelled. *)

type run_stop =
  | Drained  (** no pending events left *)
  | Deferred  (** the earliest pending event lies beyond [until] *)
  | Max_events  (** the [max_events] budget was consumed *)

val pop_run :
  'a t ->
  clock:float array ->
  until:float ->
  max_events:int ->
  k:('a -> int -> unit) ->
  run_stop
(** [pop_run q ~clock ~until ~max_events ~k] pops events in
    [(time, seq)] order while their time is [<= until], writing each
    event's timestamp into [clock.(0)] and then calling
    [k payload aux], until the queue drains, the next event lies beyond
    [until], or [max_events] events have run. The event's slot is
    recycled {e before} [k] runs, so [k] may freely add or cancel —
    including re-adding at the current time, which keeps its place in
    the tie-break order. Allocation-free. *)
