let src = Logs.Src.create "lams_dlc.receiver" ~doc:"LAMS-DLC receiver"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  reverse : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable next_expected : int;
  mutable current_errors : Seq_set.t;  (* erroneous seqs this interval *)
  intervals : Seq_set.t array;
      (* the last c_depth closed intervals, a ring whose oldest slot is
         recycled as the next current interval *)
  mutable oldest : int;  (* ring index of the oldest closed interval *)
  error_log : Seq_set.t;
      (* every erroneous seq ever reported, a superset of
         [current_errors]. Regular checkpoints only advertise the last
         c_depth intervals, but an Enforced-NAK must cover the whole
         resolving period — which spans an outage of any length (§3.2) —
         so nothing may be forgotten before an enforced recovery has had
         a chance to replay it. Stale entries are harmless: renumbering
         means the sender ignores seqs no longer outstanding. *)
  mutable cp_seq : int;
  mutable queue_len : int;
  mutable stop_state : bool;
  (* pending drains, a binary min-heap on (instant, stamp) in two
     columns; see [settle] *)
  mutable drain_at : float array;
  mutable drain_stamp : int array;
  mutable drains : int;
  mutable on_deliver : (payload:Frame.Payload.t -> seq:int -> unit) option;
  mutable running : bool;
  mutable checkpoints_sent : int;
  mutable cp_tick : unit -> unit;  (* allocated once at [create] *)
}

(* --- receiving-buffer occupancy model ---------------------------------- *)

(* Each arrival occupies the buffer until drained. With an unlimited upper
   layer a frame leaves after [t_proc]; with [recv_drain_rate = Some r]
   departures are spaced 1/r apart, so sustained arrival above r grows the
   queue and trips the Stop-Go hysteresis.

   A drain lowers [queue_len] and updates the hysteresis, nothing else,
   so it is not an engine event. Each is kept as its instant and a
   stamp, the engine's [next_seq] where the drain would have been
   scheduled, and [settle] runs, before every read of the occupancy,
   exactly the drains that the engine's (time, seq) order puts before
   the current point (see {!Sim.Engine.last_seq}). With a finite drain
   rate the instants are not monotone, hence the heap. *)

let update_stop_go t =
  if t.stop_state then begin
    if t.queue_len <= t.params.Params.recv_low_watermark then
      t.stop_state <- false
  end
  else if t.queue_len > t.params.Params.recv_high_watermark then
    t.stop_state <- true

let[@inline] drain_before t i j =
  let a = Array.unsafe_get t.drain_at i and b = Array.unsafe_get t.drain_at j in
  a < b
  || (a = b && Array.unsafe_get t.drain_stamp i < Array.unsafe_get t.drain_stamp j)

let swap_drains t i j =
  let a = Array.unsafe_get t.drain_at i and s = Array.unsafe_get t.drain_stamp i in
  Array.unsafe_set t.drain_at i (Array.unsafe_get t.drain_at j);
  Array.unsafe_set t.drain_stamp i (Array.unsafe_get t.drain_stamp j);
  Array.unsafe_set t.drain_at j a;
  Array.unsafe_set t.drain_stamp j s

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if drain_before t i p then begin
      swap_drains t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.drains then begin
    let c = if l + 1 < t.drains && drain_before t (l + 1) l then l + 1 else l in
    if drain_before t c i then begin
      swap_drains t i c;
      sift_down t c
    end
  end

let[@inline never] grow_drains t =
  let n = 2 * Array.length t.drain_stamp in
  let at = Array.make n 0. and stamp = Array.make n 0 in
  Array.blit t.drain_at 0 at 0 t.drains;
  Array.blit t.drain_stamp 0 stamp 0 t.drains;
  t.drain_at <- at;
  t.drain_stamp <- stamp

(* Run, in order, every drain due before the current point. *)
let settle t =
  if t.drains > 0 then begin
    let now = Sim.Engine.now t.engine and last = Sim.Engine.last_seq t.engine in
    while
      t.drains > 0
      &&
      let d = Array.unsafe_get t.drain_at 0 in
      d < now || (d = now && Array.unsafe_get t.drain_stamp 0 <= last)
    do
      t.drains <- t.drains - 1;
      swap_drains t 0 t.drains;
      sift_down t 0;
      t.queue_len <- t.queue_len - 1;
      update_stop_go t
    done
  end

let enqueue t =
  settle t;
  t.queue_len <- t.queue_len + 1;
  Dlc.Metrics.sample_recv_buffer t.metrics t.queue_len;
  update_stop_go t;
  let delay =
    match t.params.Params.recv_drain_rate with
    | None -> Params.t_proc
    | Some r -> float_of_int t.queue_len *. (1. /. r)
  in
  let n = t.drains in
  if n = Array.length t.drain_stamp then grow_drains t;
  Array.unsafe_set t.drain_at n (Sim.Engine.now t.engine +. delay);
  Array.unsafe_set t.drain_stamp n (Sim.Engine.next_seq t.engine);
  t.drains <- n + 1;
  sift_up t n

(* --- checkpoint emission ------------------------------------------------ *)

let send_checkpoint t ~enforced ~naks =
  settle t;
  let now = Sim.Engine.now t.engine in
  let cp =
    Frame.Cframe.checkpoint ~cp_seq:t.cp_seq ~issue_time:now
      ~stop_go:t.stop_state ~enforced ~next_expected:t.next_expected ~naks
  in
  Dlc.Probe.cp_emitted t.probe ~cp_seq:t.cp_seq ~next_expected:t.next_expected
    ~enforced ~stop_go:t.stop_state ~naks;
  t.cp_seq <- t.cp_seq + 1;
  t.checkpoints_sent <- t.checkpoints_sent + 1;
  t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
  if Array.length naks > 0 then
    t.metrics.Dlc.Metrics.naks_sent <- t.metrics.Dlc.Metrics.naks_sent + 1;
  Channel.Link.send t.reverse (Frame.Wire.Control cp)

(* Regular checkpoint: close the current interval, keep the last
   [c_depth] intervals' errors, advertise their union. An erroneous frame
   is therefore reported in exactly [c_depth] consecutive checkpoints. *)
let regular_checkpoint t =
  let depth = Array.length t.intervals in
  if depth = 0 then Seq_set.clear t.current_errors
  else begin
    let recycled = t.intervals.(t.oldest) in
    Seq_set.clear recycled;
    t.intervals.(t.oldest) <- t.current_errors;
    t.current_errors <- recycled;
    t.oldest <- (if t.oldest + 1 = depth then 0 else t.oldest + 1)
  end;
  send_checkpoint t ~enforced:false
    ~naks:(Seq_set.union_to_array t.intervals ~oldest:t.oldest)

let schedule_next_cp t =
  ignore
    (Sim.Engine.schedule t.engine ~delay:t.params.Params.w_cp t.cp_tick
      : Sim.Engine.event_id)

let create engine ~params ~reverse ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
  let t =
    {
      engine;
      params;
      reverse;
      metrics;
      probe;
      next_expected = 0;
      current_errors = Seq_set.create ();
      intervals =
        Array.init params.Params.c_depth (fun _ -> Seq_set.create ());
      oldest = 0;
      error_log = Seq_set.create ();
      cp_seq = 0;
      queue_len = 0;
      stop_state = false;
      drain_at = Array.make 8 0.;
      drain_stamp = Array.make 8 0;
      drains = 0;
      on_deliver = None;
      running = true;
      checkpoints_sent = 0;
      cp_tick = ignore;
    }
  in
  t.cp_tick <-
    (fun () ->
      if t.running then begin
        regular_checkpoint t;
        schedule_next_cp t
      end);
  schedule_next_cp t;
  t

let set_on_deliver t f = t.on_deliver <- Some f

let mark_erroneous t seq =
  Seq_set.add t.current_errors seq;
  Seq_set.add t.error_log seq

let deliver t ~payload ~seq =
  t.metrics.Dlc.Metrics.delivered <- t.metrics.Dlc.Metrics.delivered + 1;
  t.metrics.Dlc.Metrics.payload_bytes_delivered <-
    t.metrics.Dlc.Metrics.payload_bytes_delivered + Frame.Payload.length payload;
  Dlc.Metrics.set_last_delivery_time t.metrics (Sim.Engine.now t.engine);
  Dlc.Probe.delivered t.probe ~seq ~payload;
  enqueue t;
  match t.on_deliver with None -> () | Some f -> f ~payload ~seq

let on_iframe t (i : Frame.Iframe.t) ~payload_ok =
  let seq = i.Frame.Iframe.seq in
  if seq < t.next_expected then begin
    (* Cannot happen on a FIFO link with renumbered retransmissions;
       tolerated as a duplicate for robustness. *)
    Log.warn (fun m -> m "late/duplicate seq %d (expected >= %d)" seq t.next_expected);
    t.metrics.Dlc.Metrics.duplicates <- t.metrics.Dlc.Metrics.duplicates + 1;
    if payload_ok then deliver t ~payload:i.Frame.Iframe.payload ~seq
  end
  else begin
    (* Frames skipped in the stream were lost or unidentifiable: NAK them. *)
    for missing = t.next_expected to seq - 1 do
      mark_erroneous t missing
    done;
    t.next_expected <- seq + 1;
    if payload_ok then deliver t ~payload:i.Frame.Iframe.payload ~seq
    else mark_erroneous t seq
  end

let on_rx t (rx : Channel.Link.rx) =
  match (rx.Channel.Link.frame, rx.Channel.Link.status) with
  | Frame.Wire.Data i, Channel.Link.Rx_ok -> on_iframe t i ~payload_ok:true
  | Frame.Wire.Data i, Channel.Link.Rx_payload_corrupt ->
      on_iframe t i ~payload_ok:false
  | Frame.Wire.Data _, Channel.Link.Rx_header_corrupt ->
      (* Unidentifiable arrival: recovered later via gap detection or the
         checkpoint's next_expected field. *)
      ()
  | Frame.Wire.Control (Frame.Cframe.Request_nak _), Channel.Link.Rx_ok ->
      (* Answer immediately with an Enforced-NAK listing every erroneous
         frame of the whole resolving period — a Request-NAK means the
         sender lost track, possibly across an outage longer than the
         cumulation window, so the complete log is replayed. *)
      send_checkpoint t ~enforced:true ~naks:(Seq_set.to_array t.error_log)
  | Frame.Wire.Control _, _ ->
      (* Corrupted control frames are detected and dropped. *)
      ()
  | Frame.Wire.Hdlc_control _, _ ->
      Log.warn (fun m -> m "HDLC control frame on a LAMS-DLC link; ignored")

let next_expected t = t.next_expected

let outstanding_naks t = Seq_set.to_array t.error_log

let queue_length t =
  settle t;
  t.queue_len

let stop_state t =
  settle t;
  t.stop_state

let checkpoints_sent t = t.checkpoints_sent

let stop t = t.running <- false

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

let scramble_recv_seq t ~delta =
  if not t.running then None
  else begin
    let before = t.next_expected in
    t.next_expected <- max 0 (t.next_expected + delta);
    Some
      (Printf.sprintf "receiver next_expected %d -> %d" before t.next_expected)
  end

let poison_nak_ledger t ~seqs =
  if not t.running then None
  else begin
    let abs = List.map (fun s -> max 0 (t.next_expected + s)) seqs in
    List.iter (mark_erroneous t) abs;
    Some
      (Printf.sprintf "poisoned NAK ledger with phantom seqs %s"
         (String.concat "," (List.map string_of_int abs)))
  end

let truncate_nak_ledger t =
  if not t.running then None
  else begin
    let n = Seq_set.length t.error_log in
    Seq_set.clear t.current_errors;
    Array.iter Seq_set.clear t.intervals;
    Seq_set.clear t.error_log;
    Some (Printf.sprintf "erased NAK ledger (%d entries forgotten)" n)
  end
