let src = Logs.Src.create "hdlc.receiver" ~doc:"HDLC receiver"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  sp : Frame.Seqnum.space;
  reverse : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable v_r : int;
  (* Per-number state in columns indexed by the sequence number. They
     span the whole modulus, not a window: a scrambled V(R) or a
     poisoned ledger leaves entries outside [V(R), V(R)+W), which a
     window-sized ring would alias. *)
  held : Frame.Payload.t array;  (* out-of-order frames, SR mode *)
  is_held : bool array;
  mutable n_held : int;
  srej : bool array;  (* an SREJ is outstanding *)
  mutable highest_seen : int;  (* one past the newest identified seq *)
  mutable rej_armed : bool;  (* GBN: one REJ per gap event *)
  mutable on_deliver : (payload:Frame.Payload.t -> seq:int -> unit) option;
  mutable stopped : bool;
  mutable controls_emitted : int;  (* supervisory-frame emission ordinal *)
}

let create engine ~params ~reverse ~metrics ~probe =
  Dlc.Probe.set_clock probe engine;
  let m = Params.modulus params in
  {
    engine;
    params;
    sp = Frame.Seqnum.space ~bits:params.Params.seq_bits;
    reverse;
    metrics;
    probe;
    v_r = 0;
    held = Array.make m Frame.Payload.empty;
    is_held = Array.make m false;
    n_held = 0;
    srej = Array.make m false;
    highest_seen = 0;
    rej_armed = true;
    on_deliver = None;
    stopped = false;
    controls_emitted = 0;
  }

let set_on_deliver t f = t.on_deliver <- Some f

let buffered t = t.n_held

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
  t.srej.(t.v_r) <- false;
  t.v_r <- Frame.Seqnum.succ t.sp t.v_r;
  while t.is_held.(t.v_r) do
    let seq = t.v_r in
    t.is_held.(seq) <- false;
    t.n_held <- t.n_held - 1;
    deliver t ~payload:t.held.(seq) ~seq;
    t.srej.(seq) <- false;
    t.v_r <- Frame.Seqnum.succ t.sp seq
  done;
  (* highest_seen is meaningful only inside the current window *)
  if Frame.Seqnum.sub t.sp t.highest_seen t.v_r > t.params.Params.window then
    t.highest_seen <- t.v_r;
  Dlc.Metrics.sample_recv_buffer t.metrics t.n_held;
  t.rej_armed <- true;
  (* cumulative acknowledgement of the new in-order point *)
  send_control t ~kind:Frame.Hframe.Rr ~nr:t.v_r ~pf:false

let in_recv_window t seq =
  Frame.Seqnum.in_window t.sp ~lo:t.v_r ~size:t.params.Params.window seq

let request_srej t seq =
  if not t.srej.(seq) then begin
    t.srej.(seq) <- true;
    send_control t ~kind:Frame.Hframe.Srej ~nr:seq ~pf:false
  end

(* Track the newest frame identified inside the window so a poll can
   re-request everything still missing. *)
let note_seen t seq =
  let next = Frame.Seqnum.succ t.sp seq in
  if Frame.Seqnum.sub t.sp next t.v_r > Frame.Seqnum.sub t.sp t.highest_seen t.v_r
  then t.highest_seen <- next

(* GBN: discard and roll the sender back, once per gap event *)
let reject t =
  if t.rej_armed then begin
    t.rej_armed <- false;
    send_control t ~kind:Frame.Hframe.Rej ~nr:t.v_r ~pf:false
  end

let on_good_frame t seq payload =
  if seq = t.v_r then begin
    note_seen t seq;
    advance t ~payload
  end
  else if in_recv_window t seq then begin
    note_seen t seq;
    match t.params.Params.mode with
    | Params.Selective_repeat ->
        if not t.is_held.(seq) then begin
          t.held.(seq) <- payload;
          t.is_held.(seq) <- true;
          t.n_held <- t.n_held + 1;
          Dlc.Metrics.sample_recv_buffer t.metrics t.n_held
        end;
        (* every missing frame between V(R) and seq needs an SREJ *)
        let missing = ref t.v_r in
        while Frame.Seqnum.sub t.sp seq !missing > 0 do
          if not t.is_held.(!missing) then request_srej t !missing;
          missing := Frame.Seqnum.succ t.sp !missing
        done
    | Params.Go_back_n -> reject t
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
    | Params.Go_back_n -> reject t
  end

(* Poll handling: answer with the cumulative state and re-request every
   frame still missing below the newest one seen — HDLC "checkpoint
   recovery" (§2.3 of the paper; [20] in its references). *)
let on_poll t =
  (match t.params.Params.mode with
  | Params.Selective_repeat ->
      let missing = ref t.v_r in
      while Frame.Seqnum.sub t.sp t.highest_seen !missing > 0 do
        if not t.is_held.(!missing) then begin
          (* allow a fresh SREJ even if one was already sent: the poll
             implies the sender is stuck, so the SREJ likely got lost *)
          t.srej.(!missing) <- false;
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
    let w = t.params.Params.window in
    t.v_r <- Frame.Seqnum.add t.sp t.v_r (max (1 - w) (min delta (w - 1)));
    if Frame.Seqnum.sub t.sp t.highest_seen t.v_r > t.params.Params.window
    then t.highest_seen <- t.v_r;
    Some (Printf.sprintf "receiver v_r %d -> %d" before t.v_r)
  end

let poison_nak_ledger t ~seqs =
  if t.stopped then None
  else begin
    let abs_seqs = List.map (Frame.Seqnum.add t.sp t.v_r) seqs in
    List.iter (fun s -> t.srej.(s) <- true) abs_seqs;
    Some
      (Printf.sprintf
         "poisoned srej-outstanding with %s (future SREJs suppressed)"
         (String.concat "," (List.map string_of_int abs_seqs)))
  end

let truncate_nak_ledger t =
  if t.stopped then None
  else begin
    let n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.srej in
    Array.fill t.srej 0 (Array.length t.srej) false;
    Some (Printf.sprintf "erased srej-outstanding set (%d entries)" n)
  end
