type status = Rx_ok | Rx_payload_corrupt | Rx_header_corrupt

type rx = { frame : Frame.Wire.t; status : status }

type stats = {
  mutable frames_sent : int;
  mutable bits_sent : int;
  mutable frames_delivered : int;
  mutable frames_corrupted : int;
  mutable frames_lost : int;
}

type tap_event =
  | Tap_tx of Frame.Wire.t
  | Tap_rx of rx
  | Tap_lost of Frame.Wire.t

type fault_decision =
  | Pass
  | Drop
  | Corrupt_payload
  | Corrupt_header
  | Replace of Frame.Wire.t

(* Inert frame written into vacated ring slots so the link never pins a
   delivered frame's payload. *)
let dummy_frame =
  Frame.Wire.Data (Frame.Iframe.create ~seq:0 ~payload:Frame.Payload.empty)

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  distance_m : float -> float;
  data_rate_bps : float;
  iframe_error : Error_model.t;
  cframe_error : Error_model.t;
  mutable receiver : (rx -> unit) option;
  mutable taps : (tap_event -> unit) list;  (* newest last; all invoked *)
  mutable fault : (now:float -> Frame.Wire.t -> fault_decision) option;
  mutable on_idle : (unit -> unit) option;
  mutable transmitting : bool;
  queue : Frame.Wire.t Queue.t;  (* empty whenever not [transmitting] *)
  (* Per-frame engine callbacks are allocated once here, not per frame:
     [serial_done] handles end-of-serialisation for the single frame in
     the transmitter ([cur_*] fields), and [arrive_fn] delivers the
     oldest in-flight frame from the ring. Arrival times are clamped
     monotone (FIFO below), so ring order is arrival order, and only
     the head's arrival is an engine event: each frame keeps its
     arrival instant and the engine tie-break number reserved at its
     departure, and the head's arrival schedules the next. Scalar
     floats that cross event boundaries live in float arrays: flat
     float-array stores stay unboxed on non-flambda builds, where a
     mutable float field in a mixed record would box on every store. *)
  mutable serial_done : unit -> unit;
  mutable arrive_fn : int -> unit;
  mutable cur_frame : Frame.Wire.t;
  mutable cur_lost : bool;  (* sent while down: lose it at departure *)
  (* the propagation ring: three columns, capacity a power of two *)
  mutable ring_frames : Frame.Wire.t array;
  mutable ring_at : float array;  (* arrival instants *)
  mutable ring_seq : int array;  (* reserved engine tie-break numbers *)
  mutable ring_head : int;
  mutable ring_len : int;
  last_arrival : float array;
  last_fate_at : float array;  (* burst chains advance over idle time *)
  mutable up : bool;
  stats : stats;
}

let speed_of_light = 299_792_458.

let make engine ~rng ~distance_m ~data_rate_bps ~iframe_error ~cframe_error =
  if data_rate_bps <= 0. then invalid_arg "Link.create: data rate must be > 0";
  let t =
    {
      engine;
      rng;
      distance_m;
      data_rate_bps;
      iframe_error;
      cframe_error;
      receiver = None;
      taps = [];
      fault = None;
      on_idle = None;
      transmitting = false;
      queue = Queue.create ();
      serial_done = ignore;
      arrive_fn = ignore;
      cur_frame = dummy_frame;
      cur_lost = false;
      ring_frames = Array.make 16 dummy_frame;
      ring_at = Array.make 16 0.;
      ring_seq = Array.make 16 0;
      ring_head = 0;
      ring_len = 0;
      last_arrival = [| 0. |];
      last_fate_at = [| 0. |];
      up = true;
      stats =
        {
          frames_sent = 0;
          bits_sent = 0;
          frames_delivered = 0;
          frames_corrupted = 0;
          frames_lost = 0;
        };
    }
  in
  t

let set_receiver t f = t.receiver <- Some f

let add_tap t f = t.taps <- t.taps @ [ f ]

(* A recursive walk, not [List.iter]: no closure per tapped event. *)
let rec tap_each ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      tap_each ev rest

let tap t ev = tap_each ev t.taps

(* Tap events are variant boxes; only build them when a tap is
   installed. *)
let[@inline] tapping t = t.taps <> []

let set_fault t f = t.fault <- Some f

let set_on_idle t f = t.on_idle <- Some f

let busy t = t.transmitting

let queue_length t = Queue.length t.queue

let tx_time t frame = float_of_int (Frame.Wire.size_bits frame) /. t.data_rate_bps

let[@inline never] negative_distance () = invalid_arg "Link: negative distance"

(* Inlined, here and into the senders, so neither [at] nor the result is
   boxed; [at] is boxed only for the [distance_m] closure. *)
let[@inline] propagation_delay t ~at =
  let d = t.distance_m at in
  if d < 0. then negative_distance ();
  d /. speed_of_light

let is_up t = t.up

let set_up t = t.up <- true

let set_down t = t.up <- false

(* Split a frame's bits into header vs payload for the error model: for
   I-frames the header is the overhead portion; control frames are all
   header (any damage makes them undecodable). Two scalar functions
   rather than one returning a pair — this runs once per delivered frame
   and must not allocate. *)
let header_bits_of frame =
  match frame with
  | Frame.Wire.Data _ -> 8 * Frame.Wire.iframe_overhead_bytes
  | Frame.Wire.Control _ | Frame.Wire.Hdlc_control _ ->
      Frame.Wire.size_bits frame

let payload_bits_of frame =
  match frame with
  | Frame.Wire.Data i -> 8 * Frame.Payload.length i.Frame.Iframe.payload
  | Frame.Wire.Control _ | Frame.Wire.Hdlc_control _ -> 0

let error_model t frame =
  if Frame.Wire.is_control frame then t.cframe_error else t.iframe_error

let deliver t frame =
  if not t.up then begin
    t.stats.frames_lost <- t.stats.frames_lost + 1;
    if tapping t then tap t (Tap_lost frame)
  end
  else begin
    let header_bits = header_bits_of frame in
    let payload_bits = payload_bits_of frame in
    (* burst state evolved during any idle gap since the last frame *)
    let now = Sim.Engine.now t.engine in
    let span_bits =
      (now -. Array.unsafe_get t.last_fate_at 0) *. t.data_rate_bps
    in
    (* a plain comparison, not [Float.max]: times are never nan *)
    let idle_bits = span_bits -. float_of_int (header_bits + payload_bits) in
    let idle_bits = if idle_bits > 0. then int_of_float idle_bits else 0 in
    Array.unsafe_set t.last_fate_at 0 now;
    (* A scripted fault overrides the stochastic channel for this frame;
       Pass falls through to the error model. *)
    let injected =
      match t.fault with None -> Pass | Some f -> f ~now frame
    in
    (* A Replace decision substitutes the frame in flight: the forgery
       arrives clean (that is the point of a semantic lie — it must look
       valid), bypassing the stochastic error model for this frame. *)
    let frame =
      match injected with Replace forged -> forged | _ -> frame
    in
    let fate =
      match injected with
      | Drop -> Error_model.Lost
      | Corrupt_payload ->
          (* control frames are all header: any damage is fatal to them *)
          if payload_bits = 0 then Error_model.Corrupt { header = true }
          else Error_model.Corrupt { header = false }
      | Corrupt_header -> Error_model.Corrupt { header = true }
      | Replace _ -> Error_model.Clean
      | Pass ->
          let model = error_model t frame in
          Model.advance model t.rng ~bits:idle_bits;
          Model.fate model t.rng ~header_bits ~payload_bits
    in
    match fate with
    | Error_model.Lost ->
        t.stats.frames_lost <- t.stats.frames_lost + 1;
        if tapping t then tap t (Tap_lost frame)
    | Error_model.Clean | Error_model.Corrupt _ -> (
        let status =
          match fate with
          | Error_model.Clean -> Rx_ok
          | Error_model.Corrupt { header = true } -> Rx_header_corrupt
          | Error_model.Corrupt { header = false } -> Rx_payload_corrupt
          | Error_model.Lost -> assert false
        in
        if status <> Rx_ok then
          t.stats.frames_corrupted <- t.stats.frames_corrupted + 1;
        match t.receiver with
        | None ->
            t.stats.frames_lost <- t.stats.frames_lost + 1;
            if tapping t then tap t (Tap_lost frame)
        | Some f ->
            t.stats.frames_delivered <- t.stats.frames_delivered + 1;
            let rx = { frame; status } in
            if tapping t then tap t (Tap_rx rx);
            f rx)
  end

let[@inline never] grow_ring t =
  let cap = Array.length t.ring_frames in
  let frames = Array.make (2 * cap) dummy_frame
  and at = Array.make (2 * cap) 0.
  and seqs = Array.make (2 * cap) 0 in
  for i = 0 to t.ring_len - 1 do
    let j = (t.ring_head + i) land (cap - 1) in
    frames.(i) <- t.ring_frames.(j);
    at.(i) <- t.ring_at.(j);
    seqs.(i) <- t.ring_seq.(j)
  done;
  t.ring_frames <- frames;
  t.ring_at <- at;
  t.ring_seq <- seqs;
  t.ring_head <- 0

let schedule_head t =
  let i = t.ring_head in
  ignore
    (Sim.Engine.schedule_reserved t.engine ~time:(Array.unsafe_get t.ring_at i)
       ~seq:(Array.unsafe_get t.ring_seq i) ~fn:t.arrive_fn ~arg:0
      : Sim.Engine.event_id)

(* The head's arrival: queue the next head's before delivering, so the
   engine holds it even if the receiver raises. *)
let arrive t =
  assert (t.ring_len > 0);
  let i = t.ring_head in
  let frame = Array.unsafe_get t.ring_frames i in
  Array.unsafe_set t.ring_frames i dummy_frame;
  t.ring_head <- (i + 1) land (Array.length t.ring_frames - 1);
  t.ring_len <- t.ring_len - 1;
  if t.ring_len > 0 then schedule_head t;
  deliver t frame

(* Start serialising [frame] on the idle transmitter. *)
let start t frame =
  t.transmitting <- true;
  let serialisation = tx_time t frame in
  t.cur_frame <- frame;
  t.cur_lost <- not t.up;
  t.stats.frames_sent <- t.stats.frames_sent + 1;
  t.stats.bits_sent <- t.stats.bits_sent + Frame.Wire.size_bits frame;
  if tapping t then tap t (Tap_tx frame);
  ignore
    (Sim.Engine.schedule t.engine ~delay:serialisation t.serial_done
      : Sim.Engine.event_id)

let start_next t =
  if Queue.is_empty t.queue then begin
    t.transmitting <- false;
    match t.on_idle with None -> () | Some f -> f ()
  end
  else start t (Queue.pop t.queue)

(* End of serialisation for [cur_frame]: the engine clock now reads the
   departure instant (the start instant plus the serialisation time, the
   same float the scheduler computed). Hand the frame to the propagation
   ring and free the transmitter. *)
let serial_done t =
  let departure = Sim.Engine.now t.engine in
  let frame = t.cur_frame in
  t.cur_frame <- dummy_frame;
  let arrival = departure +. propagation_delay t ~at:departure in
  (* FIFO clamp: arrivals never reorder. *)
  let last = Array.unsafe_get t.last_arrival 0 in
  let arrival = if arrival < last then last else arrival in
  Array.unsafe_set t.last_arrival 0 arrival;
  if t.cur_lost then begin
    t.stats.frames_lost <- t.stats.frames_lost + 1;
    if tapping t then tap t (Tap_lost frame)
  end
  else begin
    (* the arrival's tie-break number is taken here, where a queue of
       every arrival would schedule it, so the run order is the same *)
    let seq = Sim.Engine.reserve_seq t.engine in
    if t.ring_len = Array.length t.ring_frames then grow_ring t;
    let i = (t.ring_head + t.ring_len) land (Array.length t.ring_frames - 1) in
    Array.unsafe_set t.ring_frames i frame;
    Array.unsafe_set t.ring_at i arrival;
    Array.unsafe_set t.ring_seq i seq;
    t.ring_len <- t.ring_len + 1;
    if t.ring_len = 1 then schedule_head t
  end;
  start_next t

let create engine ~rng ~distance_m ~data_rate_bps ~iframe_error ~cframe_error =
  let t = make engine ~rng ~distance_m ~data_rate_bps ~iframe_error ~cframe_error in
  t.serial_done <- (fun () -> serial_done t);
  t.arrive_fn <- (fun _ -> arrive t);
  t

(* The queue is empty whenever the transmitter is idle, so an idle
   transmitter takes [frame] directly, without a queue cell. *)
let send t frame =
  if t.transmitting then Queue.add frame t.queue else start t frame

let stats t = t.stats
