(** Priority queue of timestamped events.

    Events live in an {e arena} of reusable slots (struct-of-arrays:
    times, tie-break sequence numbers, payloads) recycled through a free
    list, so steady-state scheduling allocates nothing. Pending events
    are indexed by a three-tier structure keyed by the event's {e tick}
    (its timestamp quantised to 2{^-14} s):

    - a {b near heap} — a 4-ary min-heap over [(time, seq)] holding
      every event at or before the current tick cursor, so the pop order
      is exact;
    - a {b timer wheel} — 1024 unsorted buckets covering the next
      ~62.5 ms, where the near-horizon bulk (frame serialisation, timer
      re-arms) lands in O(1);
    - an {b overflow heap} — a second [(time, seq)] min-heap for
      timestamps beyond the wheel horizon.

    When the near heap drains, the cursor advances to the next populated
    tick and that tick's events (wheel bucket and/or overflow prefix)
    are dumped into the near heap, restoring exact order. Events with
    equal timestamps therefore still pop in insertion order, regardless
    of which tier they travelled through — the determinism contract the
    simulations depend on.

    Handles are generation-tagged integers: cancellation is O(1), a
    stale handle (slot since recycled) is detected and refused, and a
    cancelled or fired event's payload slot is immediately reset to the
    queue's [dummy] so the queue never pins dead payloads. *)

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
    returned by {!pop}. [capacity] (default 256) sizes the initial
    arena; it grows on demand. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val next_seq : 'a t -> int
(** The tie-break number the next added event will get: the count of
    events added so far. Reading it consumes nothing. *)

val last_seq : 'a t -> int
(** The tie-break number of the event {!pop} or {!pop_run} removed
    last, set before {!pop_run} calls [k] on it; [-1] before the first
    pop. *)

val add : 'a t -> time:float -> 'a -> id
(** [add q ~time v] schedules [v] at [time] and returns its handle. *)

val add_aux : 'a t -> time:float -> aux:int -> 'a -> id
(** Like {!add} with an auxiliary integer stored (unboxed) alongside the
    payload and handed back by {!pop_run} — room for a dispatch tag or a
    small argument without allocating a wrapper. {!add} stores [0]. *)

val add_cell : 'a t -> cell:float array -> aux:int -> 'a -> id
(** [add_cell q ~cell ~aux v] is [add_aux q ~time:cell.(0) ~aux v]. The
    caller stores the time into a one-element float array, unboxed, and
    this call reads it back: a float argument to a call that is not
    inlined would be boxed on non-flambda builds. {!Engine}'s inlined
    [schedule*] functions use it. *)

val cancel : 'a t -> id -> bool
(** [cancel q id] removes the event if it is still pending. Returns
    [false] when the event already fired, was already cancelled, or the
    handle is stale. Removal from the indexing tier is lazy, but the
    payload slot is cleared immediately. *)

val is_pending : 'a t -> id -> bool
(** Whether the handle names an event that has neither fired nor been
    cancelled. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest live event, if any. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest live event. Allocates the result;
    drain loops that must not allocate use {!pop_run}. *)

type run_stop =
  | Drained  (** no live events left *)
  | Deferred  (** the earliest live event lies beyond [until] *)
  | Max_events  (** the [max_events] budget was consumed *)

val pop_run :
  'a t ->
  clock:float array ->
  until:float ->
  max_events:int ->
  k:('a -> int -> unit) ->
  run_stop
(** [pop_run q ~clock ~until ~max_events ~k] pops live events in
    [(time, seq)] order while their time is [<= until], writing each
    event's timestamp into [clock.(0)] and then calling
    [k payload aux], until the queue drains, the next event lies beyond
    [until], or [max_events] events have run. The event's slot is
    recycled {e before} [k] runs, so [k] may freely add or cancel —
    including re-adding at the current time, which keeps its place in
    the tie-break order. Allocation-free. *)
