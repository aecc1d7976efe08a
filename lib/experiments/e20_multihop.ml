let name = "E20 multi-hop store-and-forward (end-to-end)"

let build_chain engine ~hops ~cfg ~protocol =
  let nodes = hops + 1 in
  let net = Netstack.Network.create engine ~nodes in
  let rng = Sim.Rng.create ~seed:cfg.Scenario.seed in
  for a = 0 to nodes - 2 do
    let mk () =
      Channel.Duplex.create_static engine ~rng
        ~distance_m:cfg.Scenario.distance_m
        ~data_rate_bps:cfg.Scenario.data_rate_bps
        ~iframe_error:(Channel.Error_model.uniform ~ber:cfg.Scenario.ber ())
        ~cframe_error:(Channel.Error_model.uniform ~ber:cfg.Scenario.cframe_ber ())
    in
    let session duplex =
      match protocol with
      | `Lams ->
          Lams_dlc.Session.as_dlc
            (Lams_dlc.Session.create engine
               ~params:(Scenario.default_lams_params cfg) ~duplex)
      | `Hdlc ->
          Hdlc.Session.as_dlc
            (Hdlc.Session.create engine
               ~params:(Scenario.default_hdlc_params cfg) ~duplex)
    in
    Netstack.Network.add_link net ~a ~b:(a + 1) ~ab:(session (mk ()))
      ~ba:(session (mk ()))
  done;
  Netstack.Network.compute_routes net;
  net

let run_one ~cfg ~hops ~messages ~message_bytes ~protocol =
  let engine = Sim.Engine.create () in
  let net = build_chain engine ~hops ~cfg ~protocol in
  let latency = Stats.Online.create () in
  let sent_at = Hashtbl.create 64 in
  Netstack.Network.set_on_message net (fun ~dst:_ ~src:_ ~msg_id ~body:_ ->
      match Hashtbl.find_opt sent_at msg_id with
      | Some t0 -> Stats.Online.add latency (Sim.Engine.now engine -. t0)
      | None -> ());
  let body = String.make message_bytes 'm' in
  (* one message every 2 ms: steady multi-message pipeline *)
  for i = 0 to messages - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(float_of_int i *. 2e-3)
         (fun () ->
           let id =
             Netstack.Network.send_message net ~src:0 ~dst:hops
               ~mtu:cfg.Scenario.payload_bytes body
           in
           Hashtbl.replace sent_at id (Sim.Engine.now engine))
        : Sim.Engine.event_id)
  done;
  Sim.Engine.run engine ~until:cfg.Scenario.horizon;
  let reseq = Netstack.Network.resequencer net hops in
  ( Stats.Online.count latency,
    Stats.Online.mean latency,
    Stats.Online.max latency,
    Netstack.Resequencer.duplicates_dropped reseq )

let messages ~quick = if quick then 10 else 40

let message_bytes = 16_384

let config = { Scenario.default with Scenario.ber = 1e-5; horizon = 60. }

let hops ~quick = if quick then [ 2 ] else [ 1; 2; 4 ]

let protocols = [ ("lams", `Lams); ("hdlc", `Hdlc) ]

let label hops tag = Printf.sprintf "hops=%d/%s" hops tag

let points ~quick =
  let messages = messages ~quick in
  List.concat_map
    (fun hops ->
      List.map
        (fun (tag, protocol) ->
          {
            Runner.label = label hops tag;
            run =
              (fun ~seed ->
                let n, mean, worst, dups =
                  run_one ~cfg:{ config with Scenario.seed } ~hops ~messages
                    ~message_bytes ~protocol
                in
                [
                  ("delivered", float_of_int n);
                  ("latency_mean_s", mean);
                  ("latency_max_s", worst);
                  ("dups_dropped", float_of_int dups);
                ]);
          })
        protocols)
    (hops ~quick)

let report ~quick e ppf =
  Report.section ppf ~id:"E20" ~title:"multi-hop store-and-forward";
  Format.fprintf ppf
    "%d messages of %d kB, fragmented at %d B, one per 2 ms; per-hop flight %.1f ms@."
    (messages ~quick) (message_bytes / 1024) config.Scenario.payload_bytes
    (1000. *. Scenario.rtt config /. 2.);
  let table =
    Stats.Table.create
      ~header:
        [
          "hops / protocol";
          "delivered";
          "mean latency s";
          "max latency s";
          "dups dropped";
        ]
  in
  List.iter
    (fun hops ->
      List.iter
        (fun (tag, _) ->
          let cell = Report.cell e (label hops tag) in
          Stats.Table.add_row table
            [
              Printf.sprintf "%d %s" hops tag;
              cell "delivered";
              cell "latency_mean_s";
              cell "latency_max_s";
              cell "dups_dropped";
            ])
        protocols)
    (hops ~quick);
  Report.table ppf table;
  Report.note ppf
    "Expect: LAMS-DLC end-to-end latency ~ hops x one-way flight plus one\n\
     recovery round; SR-HDLC multiplies its window-stall queueing by the\n\
     hop count. All messages reassemble exactly once at the destination."
