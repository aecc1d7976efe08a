(* Reference SR/GBN-HDLC: the sender and receiver as they stood before
   their per-frame state moved to sequence-indexed columns, kept as the
   executable specification that [Test_hdlc_reference] compares
   [Hdlc.Session] against. The in-flight window is a hashed table of
   records, the queues are [Queue]s of tuples and the SREJ ledger is an
   [Int] set. Changed only to name [Hdlc.Params] and to read the modulus
   from it. Do not optimise this file. *)

module Params = Hdlc.Params

module Sender = struct
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
        if fl.retries >= max_retries then declare_failure t
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
end

module Receiver = struct
  let src = Logs.Src.create "hdlc.receiver" ~doc:"HDLC receiver"

  module Log = (val Logs.src_log src : Logs.LOG)

  module Int_set = Set.Make (Int)

  type t = {
    engine : Sim.Engine.t;
    params : Params.t;
    sp : Frame.Seqnum.space;
    reverse : Channel.Link.t;
    metrics : Dlc.Metrics.t;
    probe : Dlc.Probe.t;
    mutable v_r : int;
    buffer : (int, Frame.Payload.t) Hashtbl.t;  (* out-of-order frames, SR mode *)
    mutable srej_outstanding : Int_set.t;
    mutable highest_seen : int;  (* one past the newest identified seq *)
    mutable rej_armed : bool;  (* GBN: one REJ per gap event *)
    mutable on_deliver : (payload:Frame.Payload.t -> seq:int -> unit) option;
    mutable stopped : bool;
    mutable controls_emitted : int;  (* supervisory-frame emission ordinal *)
  }

  let create engine ~params ~reverse ~metrics ~probe =
    Dlc.Probe.set_clock probe engine;
    {
      engine;
      params;
      sp = Frame.Seqnum.space ~bits:params.Params.seq_bits;
      reverse;
      metrics;
      probe;
      v_r = 0;
      buffer = Hashtbl.create 256;
      srej_outstanding = Int_set.empty;
      highest_seen = 0;
      rej_armed = true;
      on_deliver = None;
      stopped = false;
      controls_emitted = 0;
    }

  let set_on_deliver t f = t.on_deliver <- Some f

  let buffered t = Hashtbl.length t.buffer

  let stop t = t.stopped <- true

  let send_control t ~kind ~nr ~pf =
    t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
    let naks =
      match kind with
      | Frame.Hframe.Rej | Frame.Hframe.Srej ->
          t.metrics.Dlc.Metrics.naks_sent <- t.metrics.Dlc.Metrics.naks_sent + 1;
          [| nr |]
      | Frame.Hframe.Rr -> [||]
    in
    Dlc.Probe.cp_emitted t.probe ~cp_seq:t.controls_emitted ~next_expected:nr
      ~enforced:false ~stop_go:false ~naks;
    t.controls_emitted <- t.controls_emitted + 1;
    Channel.Link.send t.reverse
      (Frame.Wire.Hdlc_control (Frame.Hframe.create ~kind ~nr ~pf))

  let deliver t ~payload ~seq =
    t.metrics.Dlc.Metrics.delivered <- t.metrics.Dlc.Metrics.delivered + 1;
    t.metrics.Dlc.Metrics.payload_bytes_delivered <-
      t.metrics.Dlc.Metrics.payload_bytes_delivered + Frame.Payload.length payload;
    Dlc.Metrics.set_last_delivery_time t.metrics (Sim.Engine.now t.engine);
    Dlc.Probe.delivered t.probe ~seq ~payload;
    match t.on_deliver with None -> () | Some f -> f ~payload ~seq

  (* In-order delivery plus draining of buffered successors. *)
  let advance t ~payload =
    deliver t ~payload ~seq:t.v_r;
    t.srej_outstanding <- Int_set.remove t.v_r t.srej_outstanding;
    t.v_r <- Frame.Seqnum.succ t.sp t.v_r;
    let rec drain () =
      match Hashtbl.find_opt t.buffer t.v_r with
      | Some payload ->
          Hashtbl.remove t.buffer t.v_r;
          deliver t ~payload ~seq:t.v_r;
          t.srej_outstanding <- Int_set.remove t.v_r t.srej_outstanding;
          t.v_r <- Frame.Seqnum.succ t.sp t.v_r;
          drain ()
      | None -> ()
    in
    drain ();
    (* highest_seen is meaningful only inside the current window *)
    if Frame.Seqnum.sub t.sp t.highest_seen t.v_r > t.params.Params.window then
      t.highest_seen <- t.v_r;
    Dlc.Metrics.sample_recv_buffer t.metrics (Hashtbl.length t.buffer);
    t.rej_armed <- true;
    (* cumulative acknowledgement of the new in-order point *)
    send_control t ~kind:Frame.Hframe.Rr ~nr:t.v_r ~pf:false

  let in_recv_window t seq =
    Frame.Seqnum.in_window t.sp ~lo:t.v_r ~size:t.params.Params.window seq

  let request_srej t seq =
    if not (Int_set.mem seq t.srej_outstanding) then begin
      t.srej_outstanding <- Int_set.add seq t.srej_outstanding;
      send_control t ~kind:Frame.Hframe.Srej ~nr:seq ~pf:false
    end

  (* Track the newest frame identified inside the window so a poll can
     re-request everything still missing. *)
  let note_seen t seq =
    let next = Frame.Seqnum.succ t.sp seq in
    if Frame.Seqnum.sub t.sp next t.v_r > Frame.Seqnum.sub t.sp t.highest_seen t.v_r
    then t.highest_seen <- next

  let on_good_frame t seq payload =
    if seq = t.v_r then begin
      note_seen t seq;
      advance t ~payload
    end
    else if in_recv_window t seq then begin
      note_seen t seq;
      match t.params.Params.mode with
      | Params.Selective_repeat ->
          if not (Hashtbl.mem t.buffer seq) then begin
            Hashtbl.replace t.buffer seq payload;
            Dlc.Metrics.sample_recv_buffer t.metrics (Hashtbl.length t.buffer)
          end;
          (* every missing frame between V(R) and seq needs an SREJ *)
          let missing = ref t.v_r in
          while Frame.Seqnum.sub t.sp seq !missing > 0 do
            if not (Hashtbl.mem t.buffer !missing) then request_srej t !missing;
            missing := Frame.Seqnum.succ t.sp !missing
          done
      | Params.Go_back_n ->
          (* discard and roll the sender back, once per gap event *)
          if t.rej_armed then begin
            t.rej_armed <- false;
            send_control t ~kind:Frame.Hframe.Rej ~nr:t.v_r ~pf:false
          end
    end
    else begin
      (* below the window: duplicate retransmission after a lost RR;
         dropped (already delivered) and re-acknowledged *)
      t.metrics.Dlc.Metrics.duplicate_arrivals <-
        t.metrics.Dlc.Metrics.duplicate_arrivals + 1;
      send_control t ~kind:Frame.Hframe.Rr ~nr:t.v_r ~pf:false
    end

  let on_corrupt_frame t seq =
    (* Header survived: the receiver knows which frame failed. *)
    if in_recv_window t seq then begin
      note_seen t seq;
      match t.params.Params.mode with
      | Params.Selective_repeat -> request_srej t seq
      | Params.Go_back_n ->
          if t.rej_armed then begin
            t.rej_armed <- false;
            send_control t ~kind:Frame.Hframe.Rej ~nr:t.v_r ~pf:false
          end
    end

  (* Poll handling: answer with the cumulative state and re-request every
     frame still missing below the newest one seen — HDLC "checkpoint
     recovery" (§2.3 of the paper; [20] in its references). *)
  let on_poll t =
    (match t.params.Params.mode with
    | Params.Selective_repeat ->
        let missing = ref t.v_r in
        while Frame.Seqnum.sub t.sp t.highest_seen !missing > 0 do
          if not (Hashtbl.mem t.buffer !missing) then begin
            (* allow a fresh SREJ even if one was already sent: the poll
               implies the sender is stuck, so the SREJ likely got lost *)
            t.srej_outstanding <- Int_set.remove !missing t.srej_outstanding;
            request_srej t !missing
          end;
          missing := Frame.Seqnum.succ t.sp !missing
        done
    | Params.Go_back_n -> ());
    send_control t ~kind:Frame.Hframe.Rr ~nr:t.v_r ~pf:true

  let on_rx t (rx : Channel.Link.rx) =
    if not t.stopped then begin
      match (rx.Channel.Link.frame, rx.Channel.Link.status) with
      | Frame.Wire.Data i, Channel.Link.Rx_ok ->
          on_good_frame t i.Frame.Iframe.seq i.Frame.Iframe.payload
      | Frame.Wire.Data i, Channel.Link.Rx_payload_corrupt ->
          on_corrupt_frame t i.Frame.Iframe.seq
      | Frame.Wire.Data _, Channel.Link.Rx_header_corrupt ->
          (* unidentifiable: recovered by the sender's timeout *)
          ()
      | Frame.Wire.Hdlc_control h, Channel.Link.Rx_ok ->
          (* a poll: answer immediately with the F bit *)
          if h.Frame.Hframe.pf then on_poll t
      | Frame.Wire.Hdlc_control _, _ -> ()
      | Frame.Wire.Control _, _ ->
          Log.warn (fun m -> m "LAMS control frame on an HDLC link; ignored")
    end

  (* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

  let scramble_recv_seq t ~delta =
    if t.stopped then None
    else begin
      let before = t.v_r in
      let steps = min (abs delta) (t.params.Params.window - 1) in
      let m = Params.modulus t.params in
      for _ = 1 to steps do
        t.v_r <-
          (if delta >= 0 then Frame.Seqnum.succ t.sp t.v_r
           else Frame.Seqnum.add t.sp t.v_r (m - 1))
      done;
      if Frame.Seqnum.sub t.sp t.highest_seen t.v_r > t.params.Params.window
      then t.highest_seen <- t.v_r;
      Some (Printf.sprintf "receiver v_r %d -> %d" before t.v_r)
    end

  let poison_nak_ledger t ~seqs =
    if t.stopped then None
    else begin
      let m = Params.modulus t.params in
      let abs_seqs =
        List.map (fun s -> (((t.v_r + s) mod m) + m) mod m) seqs
      in
      t.srej_outstanding <-
        List.fold_left (fun set s -> Int_set.add s set) t.srej_outstanding
          abs_seqs;
      Some
        (Printf.sprintf
           "poisoned srej-outstanding with %s (future SREJs suppressed)"
           (String.concat "," (List.map string_of_int abs_seqs)))
    end

  let truncate_nak_ledger t =
    if t.stopped then None
    else begin
      let n = Int_set.cardinal t.srej_outstanding in
      t.srej_outstanding <- Int_set.empty;
      Some (Printf.sprintf "erased srej-outstanding set (%d entries)" n)
    end
end

type params = Params.t

let validate = Params.validate

let name p =
  let base =
    match p.Params.mode with
    | Params.Selective_repeat -> "sr-hdlc"
    | Params.Go_back_n -> "gbn-hdlc"
  in
  if p.Params.stutter then base ^ "+st" else base

let guard p = p.Params.guard
let replayable = function Frame.Wire.Hdlc_control _ -> true | _ -> false

let feedback p sender =
  Dlc.Guard.Supervisory
    {
      modulus = Params.modulus p;
      v_s = (fun () -> Sender.v_s sender);
      v_a = (fun () -> Sender.v_a sender);
      is_outstanding = (fun s -> Sender.is_outstanding sender s);
    }
