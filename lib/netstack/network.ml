let src_log = Logs.Src.create "netstack" ~doc:"store-and-forward network"

module Log = (val Logs.src_log src_log : Logs.LOG)

type node = {
  id : int;
  resequencer : Resequencer.t;
  outbox : (int, Frame.Payload.t Queue.t) Hashtbl.t;
      (* next-hop -> waiting frags *)
  mutable retry_armed : bool;
}

type t = {
  engine : Sim.Engine.t;
  nodes : node array;
  sessions : (int * int, Dlc.Session.t) Hashtbl.t;  (* (from, to) directed *)
  adjacency : (int, int list) Hashtbl.t;
  mutable next_hop : int array array;  (* [src].[dst] = hop or -1 *)
  mutable on_message :
    (dst:int -> src:int -> msg_id:int -> body:string -> unit) option;
  mutable next_msg_id : int;
  mutable delivered : int;
}

let create engine ~nodes =
  if nodes < 1 then invalid_arg "Network.create: need at least one node";
  let t =
    {
      engine;
      nodes =
        Array.init nodes (fun id ->
            {
              id;
              resequencer = Resequencer.create ();
              outbox = Hashtbl.create 4;
              retry_armed = false;
            });
      sessions = Hashtbl.create 16;
      adjacency = Hashtbl.create 16;
      next_hop = Array.make_matrix nodes nodes (-1);
      on_message = None;
      next_msg_id = 0;
      delivered = 0;
    }
  in
  Array.iter
    (fun n ->
      Resequencer.set_on_message n.resequencer (fun ~src ~msg_id ~body ->
          t.delivered <- t.delivered + 1;
          match t.on_message with
          | Some f -> f ~dst:n.id ~src ~msg_id ~body
          | None -> ()))
    t.nodes;
  t

let check_node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Network: node %d out of range" id)

let rec handle_fragment t ~at_node payload =
  match Workload.Messages.decode (Frame.Payload.to_string payload) with
  | Error reason ->
      Log.warn (fun m -> m "node %d: undecodable fragment (%s)" at_node reason)
  | Ok frag ->
      if frag.Workload.Messages.dst = at_node then
        Resequencer.push t.nodes.(at_node).resequencer frag
      else forward t ~at_node payload ~dst:frag.Workload.Messages.dst

and forward t ~at_node payload ~dst =
  let hop = t.next_hop.(at_node).(dst) in
  if hop < 0 then
    Log.warn (fun m -> m "node %d: no route to %d; fragment dropped" at_node dst)
  else begin
    match Hashtbl.find_opt t.sessions (at_node, hop) with
    | None ->
        Log.warn (fun m -> m "node %d: missing session to %d" at_node hop)
    | Some session ->
        if not (session.Dlc.Session.offer payload) then begin
          (* store-and-forward: park it and retry when the DLC drains *)
          let node = t.nodes.(at_node) in
          let q =
            match Hashtbl.find_opt node.outbox hop with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace node.outbox hop q;
                q
          in
          Queue.add payload q;
          arm_retry t node
        end
  end

and arm_retry t node =
  if not node.retry_armed then begin
    node.retry_armed <- true;
    ignore
      (Sim.Engine.schedule t.engine ~delay:1e-3 (fun () ->
           node.retry_armed <- false;
           drain_outbox t node)
        : Sim.Engine.event_id)
  end

and drain_outbox t node =
  let still_blocked = ref false in
  Hashtbl.iter
    (fun hop q ->
      match Hashtbl.find_opt t.sessions (node.id, hop) with
      | None -> ()
      | Some session ->
          let continue = ref true in
          while !continue && not (Queue.is_empty q) do
            let payload = Queue.peek q in
            if session.Dlc.Session.offer payload then
              ignore (Queue.pop q : Frame.Payload.t)
            else continue := false
          done;
          if not (Queue.is_empty q) then still_blocked := true)
    node.outbox;
  if !still_blocked then arm_retry t node

let add_link t ~a ~b ~ab ~ba =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Network.add_link: self-loop";
  Hashtbl.replace t.sessions (a, b) ab;
  Hashtbl.replace t.sessions (b, a) ba;
  let add_adj x y =
    let cur = Option.value ~default:[] (Hashtbl.find_opt t.adjacency x) in
    if not (List.mem y cur) then Hashtbl.replace t.adjacency x (y :: cur)
  in
  add_adj a b;
  add_adj b a;
  (* deliveries at b for a->b traffic, and vice versa *)
  ab.Dlc.Session.set_on_deliver (fun ~payload -> handle_fragment t ~at_node:b payload);
  ba.Dlc.Session.set_on_deliver (fun ~payload -> handle_fragment t ~at_node:a payload)

(* BFS from every destination gives next_hop[src][dst]. *)
let compute_routes t =
  let n = Array.length t.nodes in
  t.next_hop <- Array.make_matrix n n (-1);
  for dst = 0 to n - 1 do
    let visited = Array.make n false in
    let queue = Queue.create () in
    visited.(dst) <- true;
    Queue.add dst queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let neighbors = Option.value ~default:[] (Hashtbl.find_opt t.adjacency u) in
      List.iter
        (fun v ->
          if not visited.(v) then begin
            visited.(v) <- true;
            (* first hop from v towards dst is u *)
            t.next_hop.(v).(dst) <- u;
            Queue.add v queue
          end)
        neighbors
    done
  done

let reachable t ~src ~dst =
  check_node t src;
  check_node t dst;
  src = dst || t.next_hop.(src).(dst) >= 0

let send_message t ~src ~dst ~mtu body =
  check_node t src;
  check_node t dst;
  if src <> dst && t.next_hop.(src).(dst) < 0 then
    invalid_arg (Printf.sprintf "Network.send_message: no route %d->%d" src dst);
  let msg_id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  let frags = Workload.Messages.fragment_message ~msg_id ~src ~dst ~mtu body in
  List.iter
    (fun frag ->
      let payload = Frame.Payload.of_string (Workload.Messages.encode frag) in
      if dst = src then Resequencer.push t.nodes.(src).resequencer frag
      else forward t ~at_node:src payload ~dst)
    frags;
  msg_id

let set_on_message t f = t.on_message <- Some f

let fragments_in_transit t =
  Array.fold_left
    (fun acc node ->
      let queued =
        Hashtbl.fold (fun _ q acc -> acc + Queue.length q) node.outbox 0
      in
      acc + queued + Resequencer.pending_fragments node.resequencer)
    0 t.nodes

let resequencer t id =
  check_node t id;
  t.nodes.(id).resequencer
