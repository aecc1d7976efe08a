type t = {
  engine : Engine.t;
  mutable duration : float;
  on_expire : unit -> unit;
  mutable armed : Engine.event_id;
  expires_at : float array;
      (* one element, stored on every [start]: a float field of this
         mixed record would box there *)
  mutable fire : unit -> unit;
      (* allocated once at [create]; [start] re-arms it without closing
         over anything per call *)
}

let create engine ~duration ~on_expire =
  assert (duration > 0.);
  let t =
    {
      engine;
      duration;
      on_expire;
      armed = Engine.never;
      expires_at = [| 0. |];
      fire = ignore;
    }
  in
  t.fire <-
    (fun () ->
      t.armed <- Engine.never;
      t.on_expire ());
  t

let stop t =
  (* cancel on a stale or [never] handle is a cheap no-op *)
  ignore (Engine.cancel t.engine t.armed : bool);
  t.armed <- Engine.never

let start t =
  stop t;
  Array.unsafe_set t.expires_at 0
    (Array.unsafe_get (Engine.clock t.engine) 0 +. t.duration);
  t.armed <- Engine.schedule t.engine ~delay:t.duration t.fire

let reset = start

let is_running t = Engine.is_scheduled t.engine t.armed

let set_duration t d =
  assert (d > 0.);
  t.duration <- d

let remaining t =
  if Engine.is_scheduled t.engine t.armed then
    Some (Float.max 0. (Array.unsafe_get t.expires_at 0 -. Engine.now t.engine))
  else None
