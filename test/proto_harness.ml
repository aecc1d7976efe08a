(* Shared harness for protocol tests: build a session over a configurable
   duplex link, drive a workload, return everything needed for
   assertions. Every session is watched by an invariant {!Oracle}; a
   scripted {!Channel.Fault} can be installed on either direction. *)

type t = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  dlc : Dlc.Session.t;
  oracle : Oracle.t;
  delivered : (Frame.Payload.t, int) Hashtbl.t;  (* payload -> times delivered *)
  mutable delivery_order : Frame.Payload.t list;  (* newest first *)
}

let record_deliveries t =
  t.dlc.Dlc.Session.set_on_deliver (fun ~payload ->
      Hashtbl.replace t.delivered payload
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.delivered payload));
      t.delivery_order <- payload :: t.delivery_order)

let make_duplex ?(seed = 1) ?(ber = 0.) ?(cber = 0.) ?(distance = 1_000_000.)
    ?(rate = 100e6) ?iframe_error engine =
  let iframe_error =
    match iframe_error with
    | Some m -> m
    | None -> Channel.Error_model.uniform ~ber ()
  in
  Channel.Duplex.create_static engine
    ~rng:(Sim.Rng.create ~seed)
    ~distance_m:distance ~data_rate_bps:rate ~iframe_error
    ~cframe_error:(Channel.Error_model.uniform ~ber:cber ())

let install_faults ~faults ~reverse_faults (duplex : Channel.Duplex.t) =
  (match faults with
  | Some f -> Channel.Fault.install f duplex.Channel.Duplex.forward
  | None -> ());
  match reverse_faults with
  | Some f -> Channel.Fault.install f duplex.Channel.Duplex.reverse
  | None -> ()

(* Holding bound for the LAMS oracle at this duplex's round trip. *)
let lams_holding_bound ~params ~rate (duplex : Channel.Duplex.t) =
  let rtt =
    2.
    *. Channel.Link.propagation_delay duplex.Channel.Duplex.forward ~at:0.
  in
  Lams_dlc.Params.holding_bound params ~rtt ~data_rate_bps:rate

let lams ?seed ?ber ?cber ?distance ?(rate = 100e6) ?iframe_error ?faults
    ?reverse_faults ?(params = Lams_dlc.Params.default) () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex ?seed ?ber ?cber ?distance ~rate ?iframe_error engine in
  let session = Lams_dlc.Session.create engine ~params ~duplex in
  let oracle =
    Oracle.create
      (Oracle.Lams
         {
           c_depth = params.Lams_dlc.Params.c_depth;
           holding_bound = lams_holding_bound ~params ~rate duplex;
         })
  in
  Oracle.attach oracle ~probe:(Lams_dlc.Session.probe session) ~duplex;
  install_faults ~faults ~reverse_faults duplex;
  let t =
    {
      engine;
      duplex;
      dlc = Lams_dlc.Session.as_dlc session;
      oracle;
      delivered = Hashtbl.create 64;
      delivery_order = [];
    }
  in
  record_deliveries t;
  (t, session)

let nbdt ?seed ?ber ?cber ?distance ?rate ?iframe_error ?faults
    ?reverse_faults ?(params = Nbdt.Params.default) () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex ?seed ?ber ?cber ?distance ?rate ?iframe_error engine in
  let session = Nbdt.Session.create engine ~params ~duplex in
  let oracle = Oracle.create Oracle.Nbdt in
  Oracle.attach oracle ~probe:(Nbdt.Session.probe session) ~duplex;
  install_faults ~faults ~reverse_faults duplex;
  let t =
    {
      engine;
      duplex;
      dlc = Nbdt.Session.as_dlc session;
      oracle;
      delivered = Hashtbl.create 64;
      delivery_order = [];
    }
  in
  record_deliveries t;
  (t, session)

let hdlc ?seed ?ber ?cber ?distance ?rate ?iframe_error ?faults
    ?reverse_faults ?(params = Hdlc.Params.default) () =
  let engine = Sim.Engine.create () in
  let duplex = make_duplex ?seed ?ber ?cber ?distance ?rate ?iframe_error engine in
  let session = Hdlc.Session.create engine ~params ~duplex in
  let oracle =
    Oracle.create
      (Oracle.Hdlc
         {
           window = params.Hdlc.Params.window;
           seq_bits = params.Hdlc.Params.seq_bits;
         })
  in
  Oracle.attach oracle ~probe:(Hdlc.Session.probe session) ~duplex;
  install_faults ~faults ~reverse_faults duplex;
  let t =
    {
      engine;
      duplex;
      dlc = Hdlc.Session.as_dlc session;
      oracle;
      delivered = Hashtbl.create 64;
      delivery_order = [];
    }
  in
  record_deliveries t;
  (t, session)

let payload i = Frame.Payload.of_string (Printf.sprintf "payload-%06d" i)

let offer_all t n =
  for i = 0 to n - 1 do
    if not (t.dlc.Dlc.Session.offer (payload i)) then
      Alcotest.failf "offer %d refused" i
  done

(* Fails with every violation, one per line. *)
let assert_no_violations = function
  | [] -> ()
  | vs ->
      let line = Format.asprintf "%a" Oracle.pp_violation in
      Alcotest.fail (String.concat "\n" (List.map line vs))

let assert_oracle t =
  Oracle.finalize t.oracle;
  assert_no_violations (Oracle.violations t.oracle)

let run_to_completion ?(horizon = 60.) ?(check_oracle = true) t =
  Sim.Engine.run t.engine ~until:horizon;
  t.dlc.Dlc.Session.stop ();
  Sim.Engine.run t.engine;
  if check_oracle then assert_oracle t

let delivered_exactly_once t n =
  for i = 0 to n - 1 do
    match Hashtbl.find_opt t.delivered (payload i) with
    | Some 1 -> ()
    | Some k -> Alcotest.failf "payload %d delivered %d times" i k
    | None -> Alcotest.failf "payload %d never delivered" i
  done

let delivered_at_least_once t n =
  for i = 0 to n - 1 do
    if not (Hashtbl.mem t.delivered (payload i)) then
      Alcotest.failf "payload %d never delivered" i
  done

let in_order t =
  (* delivery order must equal offer order *)
  List.iteri
    (fun i p ->
      if p <> payload i then
        Alcotest.failf "position %d: got %s" i (Frame.Payload.to_string p))
    (List.rev t.delivery_order)

(* Scripts, plans and traces reach the library from files
   ([Fault.load], [Corrupt.load], [Plan.load], [Schema.validate_file]);
   [from_file load text] goes the same way. *)
let from_file load text =
  let path = Filename.temp_file "script" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      load path)

(* What an installed fault script does to each of [frames], sent one at
   a time over a clean link: the decision the far end observes. *)
let fault_decisions fault frames =
  let engine = Sim.Engine.create () in
  let link =
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:1)
      ~distance:(Channel.Link.Fixed 1000.) ~data_rate_bps:1e9
      ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  Channel.Fault.install fault link;
  Channel.Link.set_receiver link ignore;
  let sent = ref (List.hd frames) and out = ref [] in
  Channel.Link.add_tap link (function
    | Channel.Link.Tap_tx _ -> ()
    | Channel.Link.Tap_lost _ -> out := Channel.Link.Drop :: !out
    | Channel.Link.Tap_rx { frame; status } ->
        let d =
          match status with
          | Channel.Link.Rx_ok when frame == !sent -> Channel.Link.Pass
          | Channel.Link.Rx_ok -> Channel.Link.Replace frame
          | Channel.Link.Rx_payload_corrupt -> Channel.Link.Corrupt_payload
          | Channel.Link.Rx_header_corrupt -> Channel.Link.Corrupt_header
        in
        out := d :: !out);
  List.iter
    (fun f ->
      sent := f;
      Channel.Link.send link f;
      Sim.Engine.run engine)
    frames;
  List.rev !out
