(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue (an arena-backed
    [(time, seq)] heap, see {!Event_queue}). Components schedule
    callbacks at future instants; [run] pops events in timestamp order
    (ties broken by scheduling order) and executes them, advancing the
    clock. All times are in seconds of simulated time.

    Scheduling is allocation-free in steady state. [schedule] and
    [schedule_at] take a [unit -> unit] closure. A component with an
    event per frame keeps the events in its own FIFO and queues one at
    a time with {!schedule_reserved}, whose pre-allocated
    [int -> unit] callback takes the varying part as an integer, so no
    closure is built per frame.

    The queue holds few events: a component with many future events of
    its own keeps them itself and queues only the next one (see "The
    event order" below). A link direction queues one arrival however
    many frames are in flight. *)

type t

type event_id
(** Handle for cancelling a scheduled event. Handles are
    generation-tagged integers (no allocation): once the event fires or
    is cancelled the handle goes stale, and [cancel]/[is_scheduled] on a
    stale handle return [false] rather than touching a recycled slot. *)

val never : event_id
(** A handle naming no event ([cancel] returns [false]). The idle value
    for "maybe armed" fields, avoiding an [option] per arm. *)

val create : unit -> t
(** Fresh engine with clock at [0.]. *)

val now : t -> float
(** Current simulated time. *)

val clock : t -> float array
(** The one-element array whose element is {!now}. Read it, never write
    it. A component that must read the time where a float argument
    would be boxed keeps this array instead ({!Dlc.Probe} does). *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f ()] at [now t +. delay]. Raises
    [Invalid_argument] on a negative delay — the same contract as
    {!schedule_at} (historically negative delays were silently clamped
    to [0.], which masked caller bugs). *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** [schedule_at t ~time f] runs [f] at absolute [time]; raises
    [Invalid_argument] if [time] is in the simulated past. *)

val cancel : t -> event_id -> bool
(** Cancel a pending event. [false] if it already fired, was cancelled,
    or the handle is stale/[never]. *)

val is_scheduled : t -> event_id -> bool
(** Whether the handle names an event that has neither fired nor been
    cancelled. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired events. A busy link direction
    ([Channel.Link]) counts one, its next arrival, however many frames
    it has in flight: the rest wait in the link's ring. *)

(** {2 The event order}

    Events run in [(time, seq)] order, where [seq] numbers insertions.
    A component can keep cheap events of its own outside the queue and
    settle them in place: it stamps each with {!next_seq} where it
    would have scheduled it, and treats an event stamped [s] at instant
    [d] as run iff [d < now t], or [d = now t] and [s <= last_seq t].
    The queued events keep their relative order, so the component sees
    the same interleaving as if it had scheduled them. Such events are
    not in the queue: {!run} neither runs nor counts them, so
    a bare [run] ends at the last queued event, before any later
    settled-in-place instant.

    A component whose events run in the order it creates them (a FIFO
    of future instants, such as a link's frames in flight) can instead
    queue only the first: it takes each event's [seq] with
    {!reserve_seq} where it would have scheduled the event, and
    schedules it with {!schedule_reserved} once its predecessor runs.
    Each event keeps the [(time, seq)] key it would have had, so the run
    order, {!next_seq} and {!last_seq} are as if every event had been
    queued at once. The component must schedule a reserved event before
    any event it precedes runs; scheduling it from its predecessor's
    callback does that. *)

val next_seq : t -> int
(** The [seq] the next scheduled event will get: the number of events
    scheduled and of numbers reserved so far. Reading it consumes
    nothing. *)

val reserve_seq : t -> int
(** Take the next [seq] now, for an event scheduled later with
    {!schedule_reserved}: returns {!next_seq} and moves it on by one. *)

val schedule_reserved :
  t -> time:float -> seq:int -> fn:(int -> unit) -> arg:int -> event_id
(** Runs [fn arg] at absolute [time], with a [seq] taken earlier by
    {!reserve_seq}, each used at most once. [fn] can be pre-allocated
    once per component and reused for every event, with the per-event
    state packed into [arg] (at most 62 bits). Raises
    [Invalid_argument] if [time] is in the simulated past or [seq] was
    never reserved. *)

val last_seq : t -> int
(** The [seq] of the event running now, or of the one that ran last.
    It is [max_int] on a fresh engine and once {!run} has advanced the
    clock to its [~until] or drained the queue, when every event due by
    the clock has run. It stays at the last event run after [run]
    stops on [~max_events] and after a callback raises. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue drains; the clock is then
    the time of the last event run. [?until] stops the clock at that
    instant (events at exactly [until] still fire); [?max_events] bounds
    the number of events executed — a guard against runaway
    simulations. On reaching [until], the clock is advanced to [until]
    even if no event fired there. An [until] before {!now} returns at
    once, since nothing can be due before the clock: the clock never
    runs backwards, and the queue and {!last_seq} stay as they are. *)
