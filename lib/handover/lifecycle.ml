type state = Up | Retargeting | Down | Failed

let probe_state = function
  | Up -> Dlc.Probe.Link_up
  | Retargeting -> Dlc.Probe.Link_retargeting
  | Down -> Dlc.Probe.Link_down
  | Failed -> Dlc.Probe.Link_failed

type t = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t option;
  mutable state : state;
  mutable hooks : (now:float -> old_state:state -> state -> unit) list;
  mutable pending : Sim.Engine.event_id list;
  mutable history : (float * state) list;  (* newest first *)
  mutable stopped : bool;
}

let transition t next =
  if (not t.stopped) && t.state <> Failed && t.state <> next then begin
    let old_state = t.state in
    t.state <- next;
    (* switch the link first so Up hooks see a live duplex *)
    (match next with
    | Up -> Channel.Duplex.set_up t.duplex
    | Retargeting | Down | Failed -> Channel.Duplex.set_down t.duplex);
    let now = Sim.Engine.now t.engine in
    t.history <- (now, next) :: t.history;
    (match t.probe with
    | Some p ->
        Dlc.Probe.emit p ~now
          (Dlc.Probe.Link_transition { state = probe_state next })
    | None -> ());
    List.iter (fun f -> f ~now ~old_state next) t.hooks
  end

let create ?probe engine ~plan ~duplex () =
  let now = Sim.Engine.now engine in
  let t =
    {
      engine;
      duplex;
      probe;
      state = Down;
      hooks = [];
      pending = [];
      history = [ (now, Down) ];
      stopped = false;
    }
  in
  Channel.Duplex.set_down duplex;
  let overhead = Plan.retarget_overhead plan in
  let at time f =
    let id = Sim.Engine.schedule engine ~delay:(Float.max 0. (time -. now)) f in
    t.pending <- id :: t.pending
  in
  let rec arm = function
    | [] -> ()
    | w :: rest ->
        let t_start = w.Orbit.Contact.t_start
        and t_end = w.Orbit.Contact.t_end in
        if t_end <= now then arm rest
        else begin
          at t_start (fun () -> transition t Retargeting);
          let retarget_end = t_start +. overhead in
          if retarget_end < t_end then at retarget_end (fun () -> transition t Up);
          at t_end (fun () ->
              transition t (if rest = [] then Failed else Down));
          arm rest
        end
  in
  let remaining =
    List.filter (fun w -> w.Orbit.Contact.t_end > now) (Plan.windows plan)
  in
  if remaining = [] then at now (fun () -> transition t Failed) else arm remaining;
  t

let state t = t.state

let subscribe t f = t.hooks <- t.hooks @ [ f ]

let history t = List.rev t.history

let transitions t = List.length t.history - 1

let stop t =
  t.stopped <- true;
  List.iter (fun id -> ignore (Sim.Engine.cancel t.engine id : bool)) t.pending;
  t.pending <- []
