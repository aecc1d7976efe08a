let src = Logs.Src.create "hdlc.sender" ~doc:"HDLC sender"

module Log = (val Logs.src_log src : Logs.LOG)

type inflight = {
  payload : Frame.Payload.t;
  offer_time : float;
  first_tx_time : float;
  mutable retries : int;
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  sp : Frame.Seqnum.space;
  forward : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable v_s : int;  (* next sequence number to use *)
  mutable v_a : int;  (* oldest unacknowledged *)
  inflight : (int, inflight) Hashtbl.t;
  fresh : (Frame.Payload.t * float) Queue.t;
  retx : (int * bool) Queue.t;
      (* seqs queued for retransmission; the flag asks for a poll (set by
         timeout recovery only — SREJ/REJ retransmissions do not poll) *)
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
  mutable on_failure : (unit -> unit) option;
}

let backlog t = Queue.length t.fresh + Hashtbl.length t.inflight

let emit t ev = Dlc.Probe.emit t.probe ~now:(Sim.Engine.now t.engine) ev

let in_window t = Frame.Seqnum.sub t.sp t.v_s t.v_a

let window_open t = in_window t < t.params.Params.window

let window_stalled t = (not (window_open t)) && Queue.is_empty t.retx

let failed t = t.failed

(* [find], not [find_opt]: no option per delivered frame. *)
let note_delivered t seq =
  match Hashtbl.find t.inflight seq with
  | fl ->
      Stats.Online.add t.metrics.Dlc.Metrics.delivery_delay
        (Sim.Engine.now t.engine -. fl.offer_time)
  | exception Not_found -> ()

let sample_buffer t = Dlc.Metrics.sample_send_buffer t.metrics (backlog t)

let stop_timer t =
  match t.timer with Some tm -> Sim.Timer.stop tm | None -> ()

let declare_failure t =
  if not t.failed then begin
    t.failed <- true;
    t.metrics.Dlc.Metrics.failures_detected <-
      t.metrics.Dlc.Metrics.failures_detected + 1;
    stop_timer t;
    Log.info (fun m -> m "link declared failed at %g" (Sim.Engine.now t.engine));
    emit t Dlc.Probe.Failure_declared;
    match t.on_failure with None -> () | Some f -> f ()
  end

let rec maybe_send t =
  if (not t.failed) && not t.stopped && not (Channel.Link.busy t.forward) then begin
    match Queue.take_opt t.retx with
    | Some (seq, want_poll) -> (
        match Hashtbl.find_opt t.inflight seq with
        | None -> maybe_send t (* acknowledged meanwhile; skip *)
        | Some fl ->
            let pf = want_poll && not t.poll_outstanding in
            transmit t ~seq ~fl ~is_retx:true ~pf)
    | None ->
        if window_open t && not (Queue.is_empty t.fresh) then begin
          let payload, offer_time = Queue.pop t.fresh in
          let seq = t.v_s in
          t.v_s <- Frame.Seqnum.succ t.sp t.v_s;
          let fl =
            {
              payload;
              offer_time;
              first_tx_time = Sim.Engine.now t.engine;
              retries = 0;
            }
          in
          Hashtbl.replace t.inflight seq fl;
          (* P bit when the window is now exhausted: checkpoint poll
             (only one poll may be outstanding) *)
          let pf = (not (window_open t)) && not t.poll_outstanding in
          transmit t ~seq ~fl ~is_retx:false ~pf
        end
        else if t.params.Params.stutter && Hashtbl.length t.inflight > 0 then
          stutter_send t
  end

(* Stutter mode: the line would be idle — spend it re-sending
   unacknowledged frames, cycling [v_a, v_s). Extra copies cost nothing
   the line was going to do anyway and pre-empt the timeout/NAK round
   trip when the first copy was corrupted. *)
and stutter_send t =
  let in_flight_window = Frame.Seqnum.sub t.sp t.v_s t.v_a in
  if in_flight_window > 0 then begin
    (* start from the cursor; wrap within [v_a, v_s) *)
    let rec find tries seq =
      if tries = 0 then None
      else if Hashtbl.mem t.inflight seq then Some seq
      else
        let next = Frame.Seqnum.succ t.sp seq in
        let next = if Frame.Seqnum.sub t.sp next t.v_a >= in_flight_window then t.v_a else next in
        find (tries - 1) next
    in
    let start =
      if Frame.Seqnum.sub t.sp t.stutter_next t.v_a >= in_flight_window then t.v_a
      else t.stutter_next
    in
    match find in_flight_window start with
    | None -> ()
    | Some seq ->
        let fl = Hashtbl.find t.inflight seq in
        t.stutter_next <- Frame.Seqnum.succ t.sp seq;
        transmit t ~seq ~fl ~is_retx:true ~pf:false
  end

and transmit t ~seq ~fl ~is_retx ~pf =
  (* HDLC carries P in the I-frame control field; our layout models a
     poll as the I-frame followed by an RR command with P set — the same
     protocol meaning (solicit an immediate status response). *)
  let wire = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload:fl.payload) in
  if is_retx then
    t.metrics.Dlc.Metrics.retransmissions <-
      t.metrics.Dlc.Metrics.retransmissions + 1
  else t.metrics.Dlc.Metrics.iframes_sent <- t.metrics.Dlc.Metrics.iframes_sent + 1;
  Dlc.Probe.tx t.probe ~seq ~payload:fl.payload ~retx:is_retx;
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
  if t.failed || t.stopped then ()
  else
  match Hashtbl.find_opt t.inflight t.v_a with
  | None ->
      (* v_a acknowledged but later frames may remain (SR gaps) *)
      if Hashtbl.length t.inflight > 0 then ensure_timer_running t
  | Some fl ->
      if fl.retries >= t.params.Params.max_retries then declare_failure t
      else begin
        fl.retries <- fl.retries + 1;
        (* the previous poll (if any) evidently got no answer *)
        t.poll_outstanding <- false;
        Dlc.Probe.requeued t.probe ~seq:t.v_a ~payload:fl.payload;
        Queue.add (t.v_a, true) t.retx;
        ensure_timer_running t;
        maybe_send t
      end

let release t seq fl =
  Hashtbl.remove t.inflight seq;
  Dlc.Probe.released t.probe ~seq ~payload:fl.payload;
  t.metrics.Dlc.Metrics.released <- t.metrics.Dlc.Metrics.released + 1;
  Stats.Online.add t.metrics.Dlc.Metrics.holding_time
    (Sim.Engine.now t.engine -. fl.first_tx_time)

(* Cumulative acknowledgement: everything cyclically in [v_a, nr). *)
let ack_below t nr =
  let count = Frame.Seqnum.sub t.sp nr t.v_a in
  if count > 0 && count <= Frame.Seqnum.sub t.sp t.v_s t.v_a then begin
    let seq = ref t.v_a in
    for _ = 1 to count do
      (match Hashtbl.find_opt t.inflight !seq with
      | Some fl -> release t !seq fl
      | None -> ());
      seq := Frame.Seqnum.succ t.sp !seq
    done;
    t.v_a <- nr;
    sample_buffer t;
    (* restart the watchdog for the new oldest frame, if any *)
    stop_timer t;
    if Hashtbl.length t.inflight > 0 || not (Queue.is_empty t.retx) then
      ensure_timer_running t
  end

let on_srej t nr =
  match Hashtbl.find_opt t.inflight nr with
  | Some fl ->
      Dlc.Probe.requeued t.probe ~seq:nr ~payload:fl.payload;
      Queue.add (nr, false) t.retx
  | None -> ()

(* Go-Back-N: acknowledge below nr, then resend everything from nr on. *)
let on_rej t nr =
  ack_below t nr;
  let seq = ref nr in
  while Frame.Seqnum.sub t.sp t.v_s !seq > 0 do
    (match Hashtbl.find_opt t.inflight !seq with
    | Some fl ->
        Dlc.Probe.requeued t.probe ~seq:!seq ~payload:fl.payload;
        Queue.add (!seq, false) t.retx
    | None -> ());
    seq := Frame.Seqnum.succ t.sp !seq
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

let is_outstanding t seq = Hashtbl.mem t.inflight seq

(* Guard escalation hook: resend the oldest unacknowledged frame with a
   poll — the same exchange as timeout recovery, but without charging
   the frame a retry (the frame did nothing wrong; the feedback did). *)
let force_resync t =
  if (not t.failed) && not t.stopped then
    match Hashtbl.find_opt t.inflight t.v_a with
    | None -> ()
    | Some fl ->
        if not t.resync_pending then begin
          t.resync_pending <- true;
          emit t Dlc.Probe.Recovery_started
        end;
        t.poll_outstanding <- false;
        Dlc.Probe.requeued t.probe ~seq:t.v_a ~payload:fl.payload;
        Queue.add (t.v_a, true) t.retx;
        ensure_timer_running t;
        maybe_send t

let force_failure t = declare_failure t

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
    Queue.add (payload, now) t.fresh;
    sample_buffer t;
    maybe_send t;
    true
  end

let stop t =
  t.stopped <- true;
  stop_timer t

let create engine ~params ~forward ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
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
      inflight = Hashtbl.create 256;
      fresh = Queue.create ();
      retx = Queue.create ();
      timer = None;
      poll_outstanding = false;
      stutter_next = 0;
      failed = false;
      stopped = false;
      resync_pending = false;
      on_failure = None;
    }
  in
  Channel.Link.set_on_idle forward (fun () -> maybe_send t);
  t

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

let scramble_send_seq t ~delta =
  if t.failed || t.stopped || delta < 1 then None
  else begin
    (* Jump V(S) forward, materialising the skipped numbers as phantom
       in-flight frames that were never transmitted. The receiver will
       SREJ/REJ the gap and the sender "retransmits" the phantoms —
       fabricated data delivered under corrupted state, exactly the
       Dolev et al. arbitrary-state scenario — after which numbering is
       consistent again. Capped so the window guard stays sound. *)
    let room = t.params.Params.window - in_window t - 1 in
    let delta = min delta room in
    if delta < 1 then None
    else begin
      let before = t.v_s in
      let now = Sim.Engine.now t.engine in
      for _ = 1 to delta do
        Hashtbl.replace t.inflight t.v_s
          {
            payload = Frame.Payload.of_string (Printf.sprintf "phantom-%d" t.v_s);
            offer_time = now;
            first_tx_time = now;
            retries = 0;
          };
        t.v_s <- Frame.Seqnum.succ t.sp t.v_s
      done;
      Some
        (Printf.sprintf "sender v_s %d -> %d (%d phantom inflight)" before
           t.v_s delta)
    end
  end

let duplicate_buffer_entry t =
  if t.failed || t.stopped then None
  else
    let seq =
      if Hashtbl.mem t.inflight t.v_a then Some t.v_a
      else Hashtbl.fold (fun s _ _ -> Some s) t.inflight None
    in
    match seq with
    | None -> None
    | Some seq ->
        Queue.add (seq, false) t.retx;
        maybe_send t;
        Some (Printf.sprintf "duplicated inflight seq %d into the retx queue" seq)
