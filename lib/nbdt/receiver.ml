module Int_set = Set.Make (Int)

let src = Logs.Src.create "nbdt.receiver" ~doc:"NBDT receiver"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  reverse : Channel.Link.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  mutable frontier : int;
  mutable missing : Int_set.t;
  mutable report_seq : int;
  mutable on_deliver : (payload:Frame.Payload.t -> seq:int -> unit) option;
  mutable running : bool;
  mutable reports_sent : int;
  mutable report_tick : unit -> unit;  (* allocated once at [create] *)
}

let send_report t =
  (* oldest missing first; the cap bounds the report's wire size. When
     the cap truncates the list, the advertised frontier must be clamped
     to the first unreported missing number — the sender releases
     everything below the frontier that is not listed, so an unlisted
     missing frame above the clamp would be lost. *)
  let misses = Int_set.elements t.missing in
  let rec take n = function
    | [] -> ([], None)
    | x :: _ when n = 0 -> ([], Some x)
    | x :: rest ->
        let kept, overflow = take (n - 1) rest in
        (x :: kept, overflow)
  in
  let naks, overflow = take t.params.Params.max_report_misses misses in
  let advertised =
    match overflow with None -> t.frontier | Some first_unreported -> first_unreported
  in
  let now = Sim.Engine.now t.engine in
  let report =
    Frame.Cframe.checkpoint ~cp_seq:t.report_seq ~issue_time:now
      ~stop_go:false ~enforced:false ~next_expected:advertised ~naks
  in
  Dlc.Probe.cp_emitted t.probe ~cp_seq:t.report_seq ~next_expected:advertised
    ~enforced:false ~stop_go:false ~naks;
  t.report_seq <- t.report_seq + 1;
  t.reports_sent <- t.reports_sent + 1;
  t.metrics.Dlc.Metrics.control_sent <- t.metrics.Dlc.Metrics.control_sent + 1;
  if naks <> [] then
    t.metrics.Dlc.Metrics.naks_sent <- t.metrics.Dlc.Metrics.naks_sent + 1;
  Channel.Link.send t.reverse (Frame.Wire.Control report)

let schedule_report t =
  ignore
    (Sim.Engine.schedule t.engine ~delay:t.params.Params.report_interval
       t.report_tick
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
      frontier = 0;
      missing = Int_set.empty;
      report_seq = 0;
      on_deliver = None;
      running = true;
      reports_sent = 0;
      report_tick = ignore;
    }
  in
  t.report_tick <-
    (fun () ->
      if t.running then begin
        send_report t;
        schedule_report t
      end);
  schedule_report t;
  t

let set_on_deliver t f = t.on_deliver <- Some f

let deliver t ~payload ~seq =
  t.metrics.Dlc.Metrics.delivered <- t.metrics.Dlc.Metrics.delivered + 1;
  t.metrics.Dlc.Metrics.payload_bytes_delivered <-
    t.metrics.Dlc.Metrics.payload_bytes_delivered + Frame.Payload.length payload;
  Dlc.Metrics.set_last_delivery_time t.metrics (Sim.Engine.now t.engine);
  Dlc.Probe.delivered t.probe ~seq ~payload;
  match t.on_deliver with None -> () | Some f -> f ~payload ~seq

(* Invariant: seqs < frontier are received unless listed in missing. *)
let on_iframe t (i : Frame.Iframe.t) ~payload_ok =
  let seq = i.Frame.Iframe.seq in
  if seq >= t.frontier then begin
    for gap = t.frontier to seq - 1 do
      t.missing <- Int_set.add gap t.missing
    done;
    t.frontier <- seq + 1;
    if payload_ok then deliver t ~payload:i.Frame.Iframe.payload ~seq
    else t.missing <- Int_set.add seq t.missing
  end
  else if Int_set.mem seq t.missing then begin
    if payload_ok then begin
      t.missing <- Int_set.remove seq t.missing;
      deliver t ~payload:i.Frame.Iframe.payload ~seq
    end
    (* still corrupt: stays missing, keeps being reported *)
  end
  else begin
    (* already received: duplicate retransmission after a lost report *)
    t.metrics.Dlc.Metrics.duplicate_arrivals <-
      t.metrics.Dlc.Metrics.duplicate_arrivals + 1
  end

let on_rx t (rx : Channel.Link.rx) =
  match (rx.Channel.Link.frame, rx.Channel.Link.status) with
  | Frame.Wire.Data i, Channel.Link.Rx_ok -> on_iframe t i ~payload_ok:true
  | Frame.Wire.Data i, Channel.Link.Rx_payload_corrupt ->
      on_iframe t i ~payload_ok:false
  | Frame.Wire.Data _, Channel.Link.Rx_header_corrupt ->
      (* unidentifiable: middle gaps surface via later arrivals; a silent
         tail is covered by the sender's resend watchdog *)
      ()
  | (Frame.Wire.Control _ | Frame.Wire.Hdlc_control _), _ ->
      Log.warn (fun m -> m "unexpected control frame at NBDT receiver")

let frontier t = t.frontier

let missing_count t = Int_set.cardinal t.missing

let reports_sent t = t.reports_sent

let stop t = t.running <- false

(* --- state-corruption surface (Dolev et al. self-stabilisation) ---------- *)

let scramble_recv_seq t ~delta =
  if not t.running then None
  else begin
    let before = t.frontier in
    t.frontier <- max 0 (t.frontier + delta);
    Some (Printf.sprintf "receiver frontier %d -> %d" before t.frontier)
  end

let poison_nak_ledger t ~seqs =
  if not t.running then None
  else begin
    let abs = List.map (fun s -> max 0 (t.frontier + s)) seqs in
    t.missing <-
      List.fold_left (fun set s -> Int_set.add s set) t.missing abs;
    Some
      (Printf.sprintf "poisoned missing set with %s"
         (String.concat "," (List.map string_of_int abs)))
  end

let truncate_nak_ledger t =
  if not t.running then None
  else begin
    let n = Int_set.cardinal t.missing in
    t.missing <- Int_set.empty;
    Some (Printf.sprintf "erased missing set (%d entries forgotten)" n)
  end
