type link_state = Link_up | Link_retargeting | Link_down | Link_failed

type event =
  | Offered of { payload : Frame.Payload.t }
  | Tx of { seq : int; payload : Frame.Payload.t; retx : bool }
  | Released of { seq : int; payload : Frame.Payload.t }
  | Requeued of { seq : int; payload : Frame.Payload.t }
  | Delivered of { seq : int; payload : Frame.Payload.t }
  | Recovery_started
  | Recovery_completed
  | Failure_declared
  | Link_transition of { state : link_state }
  | Cp_emitted of {
      cp_seq : int;
      next_expected : int;
      enforced : bool;
      stop_go : bool;
      naks : int array;
    }
  | State_corrupted of { klass : string; detail : string }
  | Converged of { after : float; anomalies : int }
  | Cp_quarantined of { cp_seq : int; reason : string; distrust : int }
  | Resync_forced of { attempt : int }

type handlers = {
  offered : Frame.Payload.t -> unit;
  tx : seq:int -> payload:Frame.Payload.t -> retx:bool -> unit;
  released : seq:int -> payload:Frame.Payload.t -> unit;
  requeued : seq:int -> payload:Frame.Payload.t -> unit;
  delivered : seq:int -> payload:Frame.Payload.t -> unit;
  cp_emitted :
    cp_seq:int ->
    next_expected:int ->
    enforced:bool ->
    stop_go:bool ->
    naks:int array ->
    unit;
  other : now:float -> event -> unit;
}

let no_handlers =
  {
    offered = (fun _ -> ());
    tx = (fun ~seq:_ ~payload:_ ~retx:_ -> ());
    released = (fun ~seq:_ ~payload:_ -> ());
    requeued = (fun ~seq:_ ~payload:_ -> ());
    delivered = (fun ~seq:_ ~payload:_ -> ());
    cp_emitted =
      (fun ~cp_seq:_ ~next_expected:_ ~enforced:_ ~stop_go:_ ~naks:_ -> ());
    other = (fun ~now:_ _ -> ());
  }

(* [clock] is where handlers read the time: the engine's clock cell once
   a sender or receiver has bound it, or [stamp], holding [emit]'s [now],
   while [emit] dispatches. *)
type t = {
  mutable subs : handlers array;
  mutable clock : float array;
  stamp : float array;
}

let create () = { subs = [||]; clock = [| 0. |]; stamp = [| 0. |] }

let set_clock t engine = t.clock <- Sim.Engine.clock engine

let now t = Array.unsafe_get t.clock 0

let clock t = t.clock

let listen t h = t.subs <- Array.append t.subs [| h |]

(* Each typed emit is inlined into its emitter down to the subscriber
   check; the walk over the handler array is a [for] loop in a separate
   function: no closure, no event value, and no call at all without a
   subscriber. *)

let offered_all subs payload =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).offered payload
  done

let tx_all subs ~seq ~payload ~retx =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).tx ~seq ~payload ~retx
  done

let released_all subs ~seq ~payload =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).released ~seq ~payload
  done

let requeued_all subs ~seq ~payload =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).requeued ~seq ~payload
  done

let delivered_all subs ~seq ~payload =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).delivered ~seq ~payload
  done

let cp_emitted_all subs ~cp_seq ~next_expected ~enforced ~stop_go ~naks =
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i).cp_emitted ~cp_seq ~next_expected ~enforced
      ~stop_go ~naks
  done

let[@inline] offered t payload =
  if Array.length t.subs > 0 then offered_all t.subs payload

let[@inline] tx t ~seq ~payload ~retx =
  if Array.length t.subs > 0 then tx_all t.subs ~seq ~payload ~retx

let[@inline] released t ~seq ~payload =
  if Array.length t.subs > 0 then released_all t.subs ~seq ~payload

let[@inline] requeued t ~seq ~payload =
  if Array.length t.subs > 0 then requeued_all t.subs ~seq ~payload

let[@inline] delivered t ~seq ~payload =
  if Array.length t.subs > 0 then delivered_all t.subs ~seq ~payload

let[@inline] cp_emitted t ~cp_seq ~next_expected ~enforced ~stop_go ~naks =
  if Array.length t.subs > 0 then
    cp_emitted_all t.subs ~cp_seq ~next_expected ~enforced ~stop_go ~naks

let subscribe t f =
  let ev e = f ~now:(now t) e in
  listen t
    {
      offered = (fun payload -> ev (Offered { payload }));
      tx = (fun ~seq ~payload ~retx -> ev (Tx { seq; payload; retx }));
      released = (fun ~seq ~payload -> ev (Released { seq; payload }));
      requeued = (fun ~seq ~payload -> ev (Requeued { seq; payload }));
      delivered = (fun ~seq ~payload -> ev (Delivered { seq; payload }));
      cp_emitted =
        (fun ~cp_seq ~next_expected ~enforced ~stop_go ~naks ->
          ev (Cp_emitted { cp_seq; next_expected; enforced; stop_go; naks }));
      other = f;
    }

let dispatch t ~now = function
  | Offered { payload } -> offered t payload
  | Tx { seq; payload; retx } -> tx t ~seq ~payload ~retx
  | Released { seq; payload } -> released t ~seq ~payload
  | Requeued { seq; payload } -> requeued t ~seq ~payload
  | Delivered { seq; payload } -> delivered t ~seq ~payload
  | Cp_emitted { cp_seq; next_expected; enforced; stop_go; naks } ->
      cp_emitted t ~cp_seq ~next_expected ~enforced ~stop_go ~naks
  | ev ->
      let subs = t.subs in
      for i = 0 to Array.length subs - 1 do
        (Array.unsafe_get subs i).other ~now ev
      done

(* A handler may emit in turn (an oracle publishes [Converged] from its
   checkpoint handler), so the stamp and the clock are restored after
   dispatch. *)
let emit t ~now ev =
  if Array.length t.subs > 0 then begin
    let clock = t.clock and outer = Array.unsafe_get t.stamp 0 in
    Array.unsafe_set t.stamp 0 now;
    t.clock <- t.stamp;
    match dispatch t ~now ev with
    | () ->
        Array.unsafe_set t.stamp 0 outer;
        t.clock <- clock
    | exception e ->
        Array.unsafe_set t.stamp 0 outer;
        t.clock <- clock;
        raise e
  end
