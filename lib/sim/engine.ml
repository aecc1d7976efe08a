type event_id = Event_queue.id

let never = Event_queue.never

(* The clock lives in a one-element float array rather than a mutable
   record field: flat float-array stores/loads stay unboxed on
   non-flambda builds, and Event_queue reads/writes it directly
   (pop_run) so the schedule/execute hot path never materialises a
   boxed float.

   Payloads are Obj.t so one queue carries both callback shapes without
   a variant wrapper; bit 0 of the aux word tags the shape. The casts
   are confined to [schedule*] and [dispatch]. *)

type t = {
  clock : float array;
  arg : float array;  (* one element: the time handed to Event_queue.add_cell *)
  queue : Obj.t Event_queue.t;
  mutable caught_up : bool;
      (* every event due by the clock has run: [last_seq] reads max_int *)
}

let dispatch payload aux =
  if aux land 1 = 0 then (Obj.obj payload : unit -> unit) ()
  else (Obj.obj payload : int -> unit) (aux asr 1)

let create () =
  {
    clock = [| 0. |];
    arg = [| 0. |];
    queue = Event_queue.create ~capacity:1024 ~dummy:(Obj.repr 0) ();
    caught_up = true;
  }

let now t = Array.unsafe_get t.clock 0

let clock t = t.clock

(* The [schedule*] functions are inlined into their callers, so a
   computed [~delay] or [~time] stays an unboxed local and reaches the
   queue through [arg]. Their error branches live out of line: a
   [Printf] call in the body would stop the inlining. *)

let[@inline never] negative_delay delay =
  invalid_arg (Printf.sprintf "Engine.schedule: negative delay %g" delay)

let[@inline never] in_the_past time clk =
  invalid_arg
    (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time clk)

let[@inline] add_at t time aux payload =
  Array.unsafe_set t.arg 0 time;
  Event_queue.add_cell t.queue ~cell:t.arg ~aux payload

let[@inline] schedule t ~delay f =
  if delay < 0. then negative_delay delay;
  add_at t (Array.unsafe_get t.clock 0 +. delay) 0 (Obj.repr f)

let[@inline] schedule_at t ~time f =
  if time < Array.unsafe_get t.clock 0 then
    in_the_past time (Array.unsafe_get t.clock 0);
  add_at t time 0 (Obj.repr f)

let reserve_seq t = Event_queue.reserve_seq t.queue

let[@inline] schedule_reserved t ~time ~seq ~fn ~arg =
  if time < Array.unsafe_get t.clock 0 then
    in_the_past time (Array.unsafe_get t.clock 0);
  Array.unsafe_set t.arg 0 time;
  Event_queue.add_reserved t.queue ~cell:t.arg ~seq
    ~aux:((arg lsl 1) lor 1) (Obj.repr fn)

let cancel t id = Event_queue.cancel t.queue id

let is_scheduled t id = Event_queue.is_pending t.queue id

let pending t = Event_queue.length t.queue

let[@inline] next_seq t = Event_queue.next_seq t.queue

let[@inline] last_seq t =
  if t.caught_up then max_int else Event_queue.last_seq t.queue

(* [caught_up] is cleared before events run, so it stays clear when a
   callback raises, and set again once nothing due by the clock is
   left. *)

let run ?until ?max_events t =
  let u = match until with None -> infinity | Some u -> u in
  let m = match max_events with None -> max_int | Some m -> m in
  (* nothing is due before the clock: an [until] behind it returns at
     once rather than setting the clock back *)
  if u < Array.unsafe_get t.clock 0 then ()
  else begin
    if m > 0 then t.caught_up <- false;
    match
      Event_queue.pop_run t.queue ~clock:t.clock ~until:u ~max_events:m
        ~k:dispatch
    with
    | Deferred ->
        (* only reachable with a finite [until] *)
        Array.unsafe_set t.clock 0 u;
        t.caught_up <- true
    | Drained | Max_events as stop ->
        if
          until <> None
          && Array.unsafe_get t.clock 0 < u
          && Event_queue.is_empty t.queue
        then begin
          Array.unsafe_set t.clock 0 u;
          t.caught_up <- true
        end
        else if stop = Drained then t.caught_up <- true
  end
