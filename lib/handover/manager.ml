let src = Logs.Src.create "handover.manager" ~doc:"Contact-window session manager"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  mutable windows_opened : int;
  mutable sessions_created : int;
  mutable mid_window_failures : int;
  mutable carried_over : int;
  mutable suspicious_carried : int;
  mutable delivered : int;
}

type t = {
  engine : Sim.Engine.t;
  params : Lams_dlc.Params.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t;
  lifecycle : Lifecycle.t;
  mutable buffer : Frame.Payload.t Queue.t;  (* oldest first; replaced at close *)
  suspicious_pending : unit Frame.Payload.Tbl.t;
  mutable session : Lams_dlc.Session.t option;
  mutable dlc : Dlc.Session.t option;
  mutable on_deliver : (payload:Frame.Payload.t -> unit) option;
  mutable on_suspicious : (Frame.Payload.t -> unit) option;
  stats : stats;
  mutable draining : bool;
  mutable corrupt : Dlc.Corrupt.t option;
  mutable on_casualty : (Frame.Payload.t -> unit) option;
}

(* Top the live session up from the manager buffer, front first. The
   [draining] latch stops the deliver-callback re-entry from interleaving
   two drains (offer order must stay the buffer order). *)
let drain t =
  if not t.draining then begin
    t.draining <- true;
    (match t.dlc with
    | Some dlc ->
        let rec go () =
          match Queue.peek_opt t.buffer with
          | None -> ()
          | Some payload ->
              let suspicious = Frame.Payload.Tbl.mem t.suspicious_pending payload in
              if suspicious then begin
                Frame.Payload.Tbl.remove t.suspicious_pending payload;
                match t.on_suspicious with
                | Some f -> f payload
                | None -> ()
              end;
              if dlc.Dlc.Session.offer payload then begin
                ignore (Queue.pop t.buffer : Frame.Payload.t);
                go ()
              end
              else if suspicious then
                (* refused after all: the duplicate budget stays granted —
                   harmlessly conservative — but the payload is retained *)
                Frame.Payload.Tbl.replace t.suspicious_pending payload ()
        in
        go ()
    | None -> ());
    t.draining <- false
  end

let close_session t =
  match t.session with
  | None -> ()
  | Some session ->
      t.session <- None;
      t.dlc <- None;
      let now = Sim.Engine.now t.engine in
      let co = Carryover.snapshot ~now session in
      let co =
        match t.corrupt with
        | None -> co
        | Some cr -> (
            match Dlc.Corrupt.take_carryover cr ~now with
            | None -> co
            | Some (drop, flip) ->
                let co', casualties = Carryover.corrupt ~drop ~flip co in
                let detail =
                  Printf.sprintf
                    "carryover snapshot corrupted: dropped %d of %d \
                     unresolved entries%s"
                    (List.length casualties)
                    (List.length (Carryover.unresolved co))
                    (if flip then ", verdicts flipped" else "")
                in
                Dlc.Corrupt.applied cr;
                Dlc.Probe.emit t.probe ~now
                  (Dlc.Probe.State_corrupted
                     { klass = "carryover-stale"; detail });
                (match t.on_casualty with
                | Some f -> List.iter f casualties
                | None -> ());
                Log.info (fun m -> m "%s" detail);
                co')
      in
      t.stats.carried_over <-
        t.stats.carried_over + List.length (Carryover.unresolved co);
      t.stats.suspicious_carried <-
        t.stats.suspicious_carried + Carryover.suspicious co;
      List.iter
        (fun u ->
          if u.Lams_dlc.Sender.verdict = `Suspicious then
            Frame.Payload.Tbl.replace t.suspicious_pending
              u.Lams_dlc.Sender.payload ())
        (Carryover.unresolved co);
      (* carryover goes to the front: those payloads were offered first *)
      let q = Queue.create () in
      List.iter (fun p -> Queue.add p q) (Carryover.payloads co);
      Queue.transfer t.buffer q;
      t.buffer <- q;
      Log.info (fun m ->
          m "session closed at %g: %d carried over (%d suspicious)"
            (Carryover.closed_at co)
            (List.length (Carryover.unresolved co))
            (Carryover.suspicious co))

let rec open_session t =
  t.stats.sessions_created <- t.stats.sessions_created + 1;
  let session =
    Lams_dlc.Session.create ~probe:t.probe t.engine ~params:t.params
      ~duplex:t.duplex
  in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload ->
      t.stats.delivered <- t.stats.delivered + 1;
      (match t.on_deliver with Some f -> f ~payload | None -> ());
      (* releases follow deliveries within a checkpoint interval, so this
         is a cheap moment to top the sender back up *)
      drain t);
  Lams_dlc.Sender.set_on_failure (Lams_dlc.Session.sender session) (fun () ->
      let current =
        match t.session with Some s -> s == session | None -> false
      in
      if current then begin
        t.stats.mid_window_failures <- t.stats.mid_window_failures + 1;
        close_session t;
        (* the window is still open: bring up a successor, but from a
           fresh engine event — not from inside declare_failure *)
        ignore
          (Sim.Engine.schedule t.engine ~delay:0. (fun () ->
               if
                 Lifecycle.state t.lifecycle = Lifecycle.Up
                 && Option.is_none t.session
               then open_session t)
            : Sim.Engine.event_id)
      end);
  t.session <- Some session;
  t.dlc <- Some dlc;
  drain t

let create ?probe engine ~params ~duplex ~plan =
  let probe = match probe with Some p -> p | None -> Dlc.Probe.create () in
  let lifecycle = Lifecycle.create ~probe engine ~plan ~duplex () in
  let t =
    {
      engine;
      params;
      duplex;
      probe;
      lifecycle;
      buffer = Queue.create ();
      suspicious_pending = Frame.Payload.Tbl.create 64;
      session = None;
      dlc = None;
      on_deliver = None;
      on_suspicious = None;
      corrupt = None;
      on_casualty = None;
      stats =
        {
          windows_opened = 0;
          sessions_created = 0;
          mid_window_failures = 0;
          carried_over = 0;
          suspicious_carried = 0;
          delivered = 0;
        };
      draining = false;
    }
  in
  Lifecycle.subscribe lifecycle (fun ~now:_ ~old_state next ->
      (match next with
      | Lifecycle.Up ->
          t.stats.windows_opened <- t.stats.windows_opened + 1;
          open_session t
      | Lifecycle.Retargeting | Lifecycle.Down | Lifecycle.Failed -> ());
      if old_state = Lifecycle.Up && next <> Lifecycle.Up then close_session t);
  t

let offer t payload =
  if Lifecycle.state t.lifecycle = Lifecycle.Failed then false
  else begin
    Queue.add payload t.buffer;
    drain t;
    true
  end

let set_corruptor ?on_casualty t cr =
  t.corrupt <- Some cr;
  t.on_casualty <- on_casualty;
  (* the surface dispatches to whichever session is live at firing time;
     between windows every class is inapplicable and counts as skipped *)
  let with_session f =
    match t.session with
    | None -> None
    | Some s -> f (Lams_dlc.Session.corrupt_surface s)
  in
  let surface =
    {
      Dlc.Corrupt.scramble_send_seq =
        (fun ~delta ->
          with_session (fun sf -> sf.Dlc.Corrupt.scramble_send_seq ~delta));
      scramble_recv_seq =
        (fun ~delta ->
          with_session (fun sf -> sf.Dlc.Corrupt.scramble_recv_seq ~delta));
      poison_nak_ledger =
        (fun ~seqs ->
          with_session (fun sf -> sf.Dlc.Corrupt.poison_nak_ledger ~seqs));
      truncate_nak_ledger =
        (fun () ->
          with_session (fun sf -> sf.Dlc.Corrupt.truncate_nak_ledger ()));
      duplicate_buffer_entry =
        (fun () ->
          with_session (fun sf -> sf.Dlc.Corrupt.duplicate_buffer_entry ()));
      replay_reverse =
        (fun ~copies ~back ->
          with_session (fun sf ->
              sf.Dlc.Corrupt.replay_reverse ~copies ~back));
    }
  in
  Dlc.Corrupt.install cr t.engine ~surface ~probe:t.probe

let set_on_deliver t f = t.on_deliver <- Some f

let set_on_suspicious_replay t f = t.on_suspicious <- Some f

let lifecycle t = t.lifecycle

let retained t = List.of_seq (Queue.to_seq t.buffer)

let stats t = t.stats

let stop t =
  Lifecycle.stop t.lifecycle;
  close_session t
