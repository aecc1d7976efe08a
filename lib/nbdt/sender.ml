let src = Logs.Src.create "nbdt.sender" ~doc:"NBDT sender"

module Log = (val Logs.src_log src : Logs.LOG)

type inflight = {
  payload : Frame.Payload.t;
  offer_time : float;
  first_tx_time : float;
  mutable retries : int;
  mutable queued_retx : bool;  (* suppress duplicate report-driven queuing *)
  mutable last_retx_time : float;  (* cooldown reference *)
}

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  forward : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable next_seq : int;
  inflight : (int, inflight) Hashtbl.t;
  order : int Queue.t;  (* outstanding seqs, oldest first (lazy-cleaned) *)
  fresh : (Frame.Payload.t * float) Queue.t;
  retx : int Queue.t;
  (* multiphase state: the batch still awaiting full acknowledgement *)
  mutable batch_open : int;  (* frames of the current batch still allowed *)
  mutable batches_completed : int;
  mutable watchdog : Sim.Timer.t option;
  mutable watchdog_target : int option;
      (* which oldest-outstanding seq the armed watchdog is guarding *)
  mutable failed : bool;
  mutable stopped : bool;
  mutable resync_pending : bool;
      (* a guard-forced resync awaits its next accepted report *)
}

let backlog t =
  Queue.length t.fresh + Hashtbl.length t.inflight

let emit t ev = Dlc.Probe.emit t.probe ~now:(Sim.Engine.now t.engine) ev

let batches_completed t = t.batches_completed

(* [find], not [find_opt]: no option per delivered frame. *)
let note_delivered t seq =
  match Hashtbl.find t.inflight seq with
  | fl ->
      Stats.Online.add t.metrics.Dlc.Metrics.delivery_delay
        (Sim.Engine.now t.engine -. fl.offer_time)
  | exception Not_found -> ()

let sample_buffer t = Dlc.Metrics.sample_send_buffer t.metrics (backlog t)

let stop_watchdog t =
  match t.watchdog with Some w -> Sim.Timer.stop w | None -> ()

(* Retransmissions of one frame before the link is declared failed (N2,
   as in HDLC). *)
let max_retries = 10

let declare_failure t =
  if not t.failed then begin
    t.failed <- true;
    t.metrics.Dlc.Metrics.failures_detected <-
      t.metrics.Dlc.Metrics.failures_detected + 1;
    stop_watchdog t;
    Log.info (fun m -> m "link declared failed at %g" (Sim.Engine.now t.engine));
    emit t Dlc.Probe.Failure_declared
  end

let oldest_outstanding t =
  let rec front () =
    match Queue.peek_opt t.order with
    | Some s when not (Hashtbl.mem t.inflight s) ->
        ignore (Queue.pop t.order : int);
        front ()
    | other -> other
  in
  front ()

(* In multiphase mode, may a NEW frame go out? Only while the current
   batch has room; the batch closes when fully acknowledged. *)
let new_frame_allowed t =
  match t.params.Params.mode with
  | Params.Continuous -> true
  | Params.Multiphase -> t.batch_open > 0

let rec maybe_send t =
  if (not t.failed) && not t.stopped && not (Channel.Link.busy t.forward) then begin
    match Queue.take_opt t.retx with
    | Some seq -> (
        match Hashtbl.find_opt t.inflight seq with
        | None -> maybe_send t
        | Some fl ->
            fl.queued_retx <- false;
            transmit t ~seq ~fl ~is_retx:true)
    | None ->
        if new_frame_allowed t && not (Queue.is_empty t.fresh) then begin
          let payload, offer_time = Queue.pop t.fresh in
          let seq = t.next_seq in
          t.next_seq <- t.next_seq + 1;
          let fl =
            {
              payload;
              offer_time;
              first_tx_time = Sim.Engine.now t.engine;
              retries = 0;
              queued_retx = false;
              last_retx_time = neg_infinity;
            }
          in
          Hashtbl.replace t.inflight seq fl;
          Queue.add seq t.order;
          if t.params.Params.mode = Params.Multiphase then
            t.batch_open <- t.batch_open - 1;
          transmit t ~seq ~fl ~is_retx:false
        end
  end

and transmit t ~seq ~fl ~is_retx =
  let wire = Frame.Wire.Data (Frame.Iframe.create ~seq ~payload:fl.payload) in
  if is_retx then fl.last_retx_time <- Sim.Engine.now t.engine;
  if is_retx then
    t.metrics.Dlc.Metrics.retransmissions <-
      t.metrics.Dlc.Metrics.retransmissions + 1
  else t.metrics.Dlc.Metrics.iframes_sent <- t.metrics.Dlc.Metrics.iframes_sent + 1;
  Dlc.Probe.tx t.probe ~seq ~payload:fl.payload ~retx:is_retx;
  Channel.Link.send t.forward wire;
  update_watchdog t;
  maybe_send t

(* The watchdog guards the OLDEST outstanding frame: it must fire when
   that frame has made no progress for a full timeout even while healthy
   reports keep flowing (a tail frame whose header was destroyed never
   appears in any report). It is therefore reset only when the oldest
   outstanding frame changes, never merely because a report arrived. *)
and update_watchdog t =
  let timer () =
    match t.watchdog with
    | Some w -> w
    | None ->
        let w =
          Sim.Timer.create t.engine ~duration:t.params.Params.resend_timeout
            ~on_expire:(fun () -> on_watchdog t)
        in
        t.watchdog <- Some w;
        w
  in
  match oldest_outstanding t with
  | None ->
      t.watchdog_target <- None;
      stop_watchdog t
  | Some seq ->
      if t.watchdog_target <> Some seq then begin
        t.watchdog_target <- Some seq;
        Sim.Timer.start (timer ())
      end
      else if not (Sim.Timer.is_running (timer ())) then
        Sim.Timer.start (timer ())


(* Watchdog: the oldest outstanding frame has seen no report for a full
   timeout — its report stream (or the frame itself, at the stream tail)
   is gone; resend it. *)
and on_watchdog t =
  if t.failed || t.stopped then ()
  else
  match oldest_outstanding t with
  | None -> ()
  | Some seq -> (
      match Hashtbl.find_opt t.inflight seq with
      | None -> ()
      | Some fl ->
          if fl.retries >= max_retries then declare_failure t
          else begin
            fl.retries <- fl.retries + 1;
            if not fl.queued_retx then begin
              fl.queued_retx <- true;
              Dlc.Probe.requeued t.probe ~seq ~payload:fl.payload;
              Queue.add seq t.retx
            end;
            (* re-arm for the same target: expiry counts retries *)
            (match t.watchdog with Some w -> Sim.Timer.start w | None -> ());
            maybe_send t
          end)

let release t seq fl =
  Hashtbl.remove t.inflight seq;
  Dlc.Probe.released t.probe ~seq ~payload:fl.payload;
  t.metrics.Dlc.Metrics.released <- t.metrics.Dlc.Metrics.released + 1;
  Stats.Online.add t.metrics.Dlc.Metrics.holding_time
    (Sim.Engine.now t.engine -. fl.first_tx_time)

(* A report: everything below the frontier and not missing is
   acknowledged; the missing list is queued for retransmission. *)
let on_report t (report : Frame.Cframe.checkpoint) =
  let missing = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace missing s ()) report.Frame.Cframe.naks;
  let frontier = report.Frame.Cframe.next_expected in
  (* scan outstanding in order up to the frontier, remembering kept seqs
     aside — re-appending them during the scan would revisit them
     forever, since they stay below the frontier *)
  let kept = ref [] in
  let rec scan () =
    match oldest_outstanding t with
    | Some seq when seq < frontier -> (
        ignore (Queue.pop t.order : int);
        match Hashtbl.find_opt t.inflight seq with
        | None -> scan ()
        | Some fl ->
            if Hashtbl.mem missing seq then begin
              (* keep it outstanding; queue a resend unless one is already
                 queued or still within the cooldown (in flight) *)
              kept := seq :: !kept;
              if
                (not fl.queued_retx)
                && Sim.Engine.now t.engine -. fl.last_retx_time
                   > t.params.Params.retx_cooldown
              then begin
                fl.queued_retx <- true;
                Dlc.Probe.requeued t.probe ~seq ~payload:fl.payload;
                Queue.add seq t.retx
              end
            end
            else release t seq fl;
            scan ())
    | _ -> ()
  in
  scan ();
  (* kept entries end up behind newer seqs in [order]; ordering only
     matters for the watchdog, which tolerates it *)
  List.iter (fun seq -> Queue.add seq t.order) (List.rev !kept);
  sample_buffer t;
  update_watchdog t;
  (* a report that made it past the guard closes a forced resync: the
     sender's view of the receiver has been refreshed from trusted state *)
  if t.resync_pending then begin
    t.resync_pending <- false;
    emit t Dlc.Probe.Recovery_completed
  end;
  (* multiphase: when the whole batch (and its retransmissions) has been
     acknowledged, open the next batch *)
  (match t.params.Params.mode with
  | Params.Multiphase ->
      if
        t.batch_open <= 0
        && Hashtbl.length t.inflight = 0
        && Queue.is_empty t.retx
      then begin
        t.batches_completed <- t.batches_completed + 1;
        t.batch_open <- t.params.Params.batch_size
      end
  | Params.Continuous -> ());
  maybe_send t

let on_rx t (rx : Channel.Link.rx) =
  if not t.failed then begin
    match (rx.Channel.Link.frame, rx.Channel.Link.status) with
    | Frame.Wire.Control (Frame.Cframe.Checkpoint report), Channel.Link.Rx_ok ->
        on_report t report
    | Frame.Wire.Control _, _ ->
        (* corrupted or non-report control: dropped; the next report is
           cumulative *)
        ()
    | (Frame.Wire.Data _ | Frame.Wire.Hdlc_control _), _ ->
        Log.warn (fun m -> m "unexpected frame on NBDT reverse path")
  end

let next_seq t = t.next_seq

let is_outstanding t seq = Hashtbl.mem t.inflight seq

(* Guard escalation hook. NBDT has no solicited-resynchronisation
   exchange; reports are periodic and each one carries the receiver's
   complete status. A forced resync therefore (a) re-offers every
   outstanding frame to the line — any release the lying feedback should
   have caused but didn't is repaired by the receiver discarding
   duplicates — and (b) arms [resync_pending] so the next report the
   guard accepts closes the recovery. *)
let force_resync t =
  if (not t.failed) && not t.stopped then begin
    if not t.resync_pending then begin
      t.resync_pending <- true;
      emit t Dlc.Probe.Recovery_started
    end;
    Queue.iter
      (fun seq ->
        match Hashtbl.find_opt t.inflight seq with
        | Some fl when not fl.queued_retx ->
            fl.queued_retx <- true;
            Dlc.Probe.requeued t.probe ~seq ~payload:fl.payload;
            Queue.add seq t.retx
        | _ -> ())
      t.order;
    maybe_send t
  end

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
  stop_watchdog t

let create engine ~params ~forward ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
  let t =
    {
      engine;
      params;
      forward;
      metrics;
      probe;
      next_seq = 0;
      inflight = Hashtbl.create 1024;
      order = Queue.create ();
      fresh = Queue.create ();
      retx = Queue.create ();
      batch_open = params.Params.batch_size;
      batches_completed = 0;
      watchdog = None;
      watchdog_target = None;
      failed = false;
      stopped = false;
      resync_pending = false;
    }
  in
  Channel.Link.set_on_idle forward (fun () -> maybe_send t);
  t

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

let scramble_send_seq t ~delta =
  if t.failed || t.stopped || delta < 1 then None
  else begin
    let before = t.next_seq in
    t.next_seq <- t.next_seq + delta;
    Some (Printf.sprintf "sender next_seq %d -> %d" before t.next_seq)
  end

let duplicate_buffer_entry t =
  if t.failed || t.stopped then None
  else
    match oldest_outstanding t with
    | None -> None
    | Some seq ->
        Queue.add seq t.retx;
        maybe_send t;
        Some (Printf.sprintf "duplicated outstanding seq %d into the retx queue" seq)
