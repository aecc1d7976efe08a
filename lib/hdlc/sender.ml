let src = Logs.Src.create "hdlc.sender" ~doc:"HDLC sender"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  sp : Frame.Seqnum.space;
  forward : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable v_s : int;  (* next sequence number to use *)
  mutable v_a : int;  (* oldest unacknowledged *)
  (* The frames in flight are exactly the cyclic range [v_a, v_s): they
     enter at v_s and leave from v_a. Their state lives in columns
     indexed by the sequence number, the instants unboxed. *)
  payloads : Frame.Payload.t array;
  offer_at : float array;
  first_tx_at : float array;
  retries : int array;
  (* never-sent payloads and their offer instants: a ring of [fresh_len]
     entries from [fresh_head], its capacity a power of two *)
  mutable fresh : Frame.Payload.t array;
  mutable fresh_at : float array;
  mutable fresh_head : int;
  mutable fresh_len : int;
  retx : Dlc.Fifo.t;
      (* seqs queued for retransmission, as [2 * seq + poll]: the poll bit
         is set by timeout recovery only — SREJ/REJ retransmissions do not
         poll *)
  mutable timer : Sim.Timer.t option;
      (* single retransmission timer guarding the oldest unacknowledged
         frame — HDLC timeout recovery. Per-frame timers would stampede
         while the in-order point is blocked on one missing frame. *)
  mutable poll_outstanding : bool;
      (* HDLC allows a single outstanding P bit: no new poll until the
         matching F-bit response (or a timeout recovery) *)
  mutable stutter_next : int;
      (* cyclic cursor over unacknowledged frames for the stutter modes *)
  mutable failed : bool;
  mutable stopped : bool;
  mutable resync_pending : bool;
      (* a guard-forced poll awaits its Final response *)
}

let in_window t = Frame.Seqnum.sub t.sp t.v_s t.v_a

let[@inline] in_flight t seq = Frame.Seqnum.sub t.sp seq t.v_a < in_window t

let backlog t = t.fresh_len + in_window t

let emit t ev = Dlc.Probe.emit t.probe ~now:(Sim.Engine.now t.engine) ev

let window_open t = in_window t < t.params.Params.window

let window_stalled t = (not (window_open t)) && Dlc.Fifo.is_empty t.retx

let note_delivered t seq =
  if in_flight t seq then
    Stats.Online.add t.metrics.Dlc.Metrics.delivery_delay
      (Sim.Engine.now t.engine -. t.offer_at.(seq))

let sample_buffer t = Dlc.Metrics.sample_send_buffer t.metrics (backlog t)

let stop_timer t =
  match t.timer with Some tm -> Sim.Timer.stop tm | None -> ()

(* HDLC's N2: retransmissions of one frame before the link is declared
   failed. *)
let max_retries = 10

let declare_failure t =
  if not t.failed then begin
    t.failed <- true;
    t.metrics.Dlc.Metrics.failures_detected <-
      t.metrics.Dlc.Metrics.failures_detected + 1;
    stop_timer t;
    Log.info (fun m -> m "link declared failed at %g" (Sim.Engine.now t.engine));
    emit t Dlc.Probe.Failure_declared
  end

(* Put a frame in flight under V(S). *)
let[@inline] enter t payload ~offer_at ~now =
  let seq = t.v_s in
  t.v_s <- Frame.Seqnum.succ t.sp seq;
  t.payloads.(seq) <- payload;
  t.offer_at.(seq) <- offer_at;
  t.first_tx_at.(seq) <- now;
  t.retries.(seq) <- 0;
  seq

let rec maybe_send t =
  if (not t.failed) && (not t.stopped) && not (Channel.Link.busy t.forward) then
    if not (Dlc.Fifo.is_empty t.retx) then begin
      let x = Dlc.Fifo.pop t.retx in
      let seq = x lsr 1 in
      if in_flight t seq then
        transmit t ~seq ~is_retx:true
          ~pf:(x land 1 = 1 && not t.poll_outstanding)
      else maybe_send t (* acknowledged meanwhile; skip *)
    end
    else if window_open t && t.fresh_len > 0 then begin
      let h = t.fresh_head in
      t.fresh_head <- (h + 1) land (Array.length t.fresh - 1);
      t.fresh_len <- t.fresh_len - 1;
      let now = Sim.Engine.now t.engine in
      let seq = enter t t.fresh.(h) ~offer_at:t.fresh_at.(h) ~now in
      (* P bit when the window is now exhausted: checkpoint poll
         (only one poll may be outstanding) *)
      transmit t ~seq ~is_retx:false
        ~pf:((not (window_open t)) && not t.poll_outstanding)
    end
    else if t.params.Params.stutter && in_window t > 0 then stutter_send t

(* Stutter mode: the line would be idle — spend it re-sending
   unacknowledged frames, cycling [v_a, v_s) from the cursor. Extra
   copies cost nothing the line was going to do anyway and pre-empt the
   timeout/NAK round trip when the first copy was corrupted. *)
and stutter_send t =
  let seq = if in_flight t t.stutter_next then t.stutter_next else t.v_a in
  t.stutter_next <- Frame.Seqnum.succ t.sp seq;
  transmit t ~seq ~is_retx:true ~pf:false

and transmit t ~seq ~is_retx ~pf =
  (* HDLC carries P in the I-frame control field; our layout models a
     poll as the I-frame followed by an RR command with P set — the same
     protocol meaning (solicit an immediate status response). *)
  let payload = t.payloads.(seq) in
  let wire = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload) in
  if is_retx then
    t.metrics.Dlc.Metrics.retransmissions <-
      t.metrics.Dlc.Metrics.retransmissions + 1
  else t.metrics.Dlc.Metrics.iframes_sent <- t.metrics.Dlc.Metrics.iframes_sent + 1;
  Dlc.Probe.tx t.probe ~seq ~payload ~retx:is_retx;
  Channel.Link.send t.forward wire;
  if pf then begin
    t.poll_outstanding <- true;
    t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
    Channel.Link.send t.forward
      (Frame.Wire.Hdlc_control
         (Frame.Hframe.create ~kind:Frame.Hframe.Rr ~nr:seq ~pf:true))
  end;
  ensure_timer_running t;
  maybe_send t

and ensure_timer_running t =
  match t.timer with
  | Some tm -> if not (Sim.Timer.is_running tm) then Sim.Timer.start tm
  | None ->
      let tm =
        Sim.Timer.create t.engine ~duration:t.params.Params.t_out
          ~on_expire:(fun () -> on_timeout t)
      in
      t.timer <- Some tm;
      Sim.Timer.start tm

(* Timeout recovery: the oldest unacknowledged frame is stuck (its SREJ,
   its retransmission, or the closing RR was lost) — resend it with a
   poll. *)
and on_timeout t =
  if (not t.failed) && (not t.stopped) && in_window t > 0 then
    if t.retries.(t.v_a) >= max_retries then declare_failure t
    else begin
      t.retries.(t.v_a) <- t.retries.(t.v_a) + 1;
      poll_oldest t
    end

(* Requeue the oldest unacknowledged frame with a poll; the previous
   poll (if any) evidently got no answer. *)
and poll_oldest t =
  t.poll_outstanding <- false;
  Dlc.Probe.requeued t.probe ~seq:t.v_a ~payload:t.payloads.(t.v_a);
  Dlc.Fifo.push t.retx ((2 * t.v_a) + 1);
  ensure_timer_running t;
  maybe_send t

(* Cumulative acknowledgement: everything cyclically in [v_a, nr). *)
let ack_below t nr =
  let count = Frame.Seqnum.sub t.sp nr t.v_a in
  if count > 0 && count <= in_window t then begin
    let now = Sim.Engine.now t.engine in
    for i = 0 to count - 1 do
      let seq = Frame.Seqnum.add t.sp t.v_a i in
      Dlc.Probe.released t.probe ~seq ~payload:t.payloads.(seq);
      t.metrics.Dlc.Metrics.released <- t.metrics.Dlc.Metrics.released + 1;
      Stats.Online.add t.metrics.Dlc.Metrics.holding_time
        (now -. t.first_tx_at.(seq))
    done;
    t.v_a <- nr;
    sample_buffer t;
    (* restart the watchdog for the new oldest frame, if any *)
    stop_timer t;
    if in_window t > 0 || not (Dlc.Fifo.is_empty t.retx) then
      ensure_timer_running t
  end

let requeue t seq =
  Dlc.Probe.requeued t.probe ~seq ~payload:t.payloads.(seq);
  Dlc.Fifo.push t.retx (2 * seq)

let on_srej t nr = if in_flight t nr then requeue t nr

(* Go-Back-N: acknowledge below nr, then resend everything still in
   flight. An nr inside [v_a, v_s] is the new v_a; one outside leaves
   the whole window to resend. *)
let on_rej t nr =
  ack_below t nr;
  for i = 0 to in_window t - 1 do
    requeue t (Frame.Seqnum.add t.sp t.v_a i)
  done

let on_rx t (rx : Channel.Link.rx) =
  if not t.failed then begin
    match (rx.Channel.Link.frame, rx.Channel.Link.status) with
    | Frame.Wire.Hdlc_control h, Channel.Link.Rx_ok ->
        if h.Frame.Hframe.pf then t.poll_outstanding <- false;
        (match h.Frame.Hframe.kind with
        | Frame.Hframe.Rr -> ack_below t h.Frame.Hframe.nr
        | Frame.Hframe.Srej -> on_srej t h.Frame.Hframe.nr
        | Frame.Hframe.Rej -> on_rej t h.Frame.Hframe.nr);
        (* a Final response answers a guard-forced poll: the sender's
           view has been refreshed from a solicited status *)
        if h.Frame.Hframe.pf && t.resync_pending then begin
          t.resync_pending <- false;
          emit t Dlc.Probe.Recovery_completed
        end;
        maybe_send t
    | Frame.Wire.Hdlc_control _, _ ->
        (* corrupted supervisory frame: detected and dropped; timeout
           recovery covers the loss *)
        ()
    | (Frame.Wire.Data _ | Frame.Wire.Control _), _ ->
        Log.warn (fun m -> m "unexpected frame type on HDLC reverse path")
  end

let v_s t = t.v_s

let v_a t = t.v_a

let is_outstanding = in_flight

(* Guard escalation hook: resend the oldest unacknowledged frame with a
   poll — the same exchange as timeout recovery, but without charging
   the frame a retry (the frame did nothing wrong; the feedback did). *)
let force_resync t =
  if (not t.failed) && (not t.stopped) && in_window t > 0 then begin
    if not t.resync_pending then begin
      t.resync_pending <- true;
      emit t Dlc.Probe.Recovery_started
    end;
    poll_oldest t
  end

let force_failure t = declare_failure t

(* A full ring's entries from [head] on, in an array twice its size. *)
let double ring ~head fill =
  let n = Array.length ring in
  let a = Array.make (2 * n) fill in
  Array.blit ring head a 0 (n - head);
  Array.blit ring 0 a (n - head) head;
  a

let offer t payload =
  if t.failed || t.stopped then false
  else if backlog t >= t.params.Params.send_buffer_capacity then begin
    t.metrics.Dlc.Metrics.offered <- t.metrics.Dlc.Metrics.offered + 1;
    t.metrics.Dlc.Metrics.refused <- t.metrics.Dlc.Metrics.refused + 1;
    false
  end
  else begin
    let now = Sim.Engine.now t.engine in
    t.metrics.Dlc.Metrics.offered <- t.metrics.Dlc.Metrics.offered + 1;
    if Float.is_nan (Dlc.Metrics.first_offer_time t.metrics) then
      Dlc.Metrics.set_first_offer_time t.metrics now;
    Dlc.Probe.offered t.probe payload;
    if t.fresh_len = Array.length t.fresh then begin
      t.fresh <- double t.fresh ~head:t.fresh_head Frame.Payload.empty;
      t.fresh_at <- double t.fresh_at ~head:t.fresh_head 0.;
      t.fresh_head <- 0
    end;
    let j = (t.fresh_head + t.fresh_len) land (Array.length t.fresh - 1) in
    t.fresh.(j) <- payload;
    t.fresh_at.(j) <- now;
    t.fresh_len <- t.fresh_len + 1;
    sample_buffer t;
    maybe_send t;
    true
  end

let stop t =
  t.stopped <- true;
  stop_timer t

let create engine ~params ~forward ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
  let m = Params.modulus params in
  let t =
    {
      engine;
      params;
      sp = Frame.Seqnum.space ~bits:params.Params.seq_bits;
      forward;
      metrics;
      probe;
      v_s = 0;
      v_a = 0;
      payloads = Array.make m Frame.Payload.empty;
      offer_at = Array.make m 0.;
      first_tx_at = Array.make m 0.;
      retries = Array.make m 0;
      fresh = Array.make 16 Frame.Payload.empty;
      fresh_at = Array.make 16 0.;
      fresh_head = 0;
      fresh_len = 0;
      retx = Dlc.Fifo.create ();
      timer = None;
      poll_outstanding = false;
      stutter_next = 0;
      failed = false;
      stopped = false;
      resync_pending = false;
    }
  in
  Channel.Link.set_on_idle forward (fun () -> maybe_send t);
  t

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

(* Jump V(S) forward, materialising the skipped numbers as phantom
   in-flight frames that were never transmitted. The receiver will
   SREJ/REJ the gap and the sender "retransmits" the phantoms —
   fabricated data delivered under corrupted state, exactly the Dolev et
   al. arbitrary-state scenario — after which numbering is consistent
   again. Capped so the window guard stays sound. *)
let scramble_send_seq t ~delta =
  let delta = min delta (t.params.Params.window - in_window t - 1) in
  if t.failed || t.stopped || delta < 1 then None
  else begin
    let before = t.v_s in
    let now = Sim.Engine.now t.engine in
    for _ = 1 to delta do
      let phantom = Printf.sprintf "phantom-%d" t.v_s in
      ignore (enter t (Frame.Payload.of_string phantom) ~offer_at:now ~now)
    done;
    Some
      (Printf.sprintf "sender v_s %d -> %d (%d phantom inflight)" before t.v_s
         delta)
  end

let duplicate_buffer_entry t =
  if t.failed || t.stopped || in_window t = 0 then None
  else begin
    let seq = t.v_a in
    Dlc.Fifo.push t.retx (2 * seq);
    maybe_send t;
    Some (Printf.sprintf "duplicated inflight seq %d into the retx queue" seq)
  end
