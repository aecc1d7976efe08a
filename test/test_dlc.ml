(* Unit tests for the shared DLC metrics accounting. *)

let test_counters_start_zero () =
  let m = Dlc.Metrics.create () in
  Alcotest.(check int) "offered" 0 m.Dlc.Metrics.offered;
  Alcotest.(check int) "unique" 0 (Dlc.Metrics.unique_delivered m);
  Alcotest.(check int) "loss" 0 (Dlc.Metrics.loss m);
  Alcotest.(check (float 0.)) "elapsed" 0. (Dlc.Metrics.elapsed m)

let test_unique_and_loss () =
  let m = Dlc.Metrics.create () in
  m.Dlc.Metrics.offered <- 10;
  m.Dlc.Metrics.refused <- 2;
  m.Dlc.Metrics.delivered <- 7;
  m.Dlc.Metrics.duplicates <- 1;
  Alcotest.(check int) "unique" 6 (Dlc.Metrics.unique_delivered m);
  Alcotest.(check int) "loss = offered - refused - unique" 2 (Dlc.Metrics.loss m)

let test_buffer_sampling_peaks () =
  let m = Dlc.Metrics.create () in
  List.iter (Dlc.Metrics.sample_send_buffer m) [ 1; 5; 3 ];
  List.iter (Dlc.Metrics.sample_recv_buffer m) [ 2; 9; 4 ];
  Alcotest.(check int) "send peak" 5 m.Dlc.Metrics.send_buffer_peak;
  Alcotest.(check int) "recv peak" 9 m.Dlc.Metrics.recv_buffer_peak;
  Alcotest.(check int) "send samples" 3 (Stats.Online.count m.Dlc.Metrics.send_buffer);
  Alcotest.(check (float 1e-9)) "send mean" 3. (Stats.Online.mean m.Dlc.Metrics.send_buffer)

let test_throughput_efficiency () =
  let m = Dlc.Metrics.create () in
  m.Dlc.Metrics.offered <- 100;
  m.Dlc.Metrics.delivered <- 100;
  Dlc.Metrics.set_first_offer_time m 1.0;
  Dlc.Metrics.set_last_delivery_time m 2.0;
  (* 100 frames of 5 ms each in a 1 s span: eta = 0.5 *)
  Alcotest.(check (float 1e-9)) "eta" 0.5
    (Dlc.Metrics.throughput_efficiency m ~iframe_time:5e-3);
  Alcotest.(check (float 1e-9)) "elapsed" 1.0 (Dlc.Metrics.elapsed m)

let test_efficiency_degenerate () =
  let m = Dlc.Metrics.create () in
  Alcotest.(check (float 0.)) "no span = 0" 0.
    (Dlc.Metrics.throughput_efficiency m ~iframe_time:1e-3)

let test_pp_renders () =
  let m = Dlc.Metrics.create () in
  m.Dlc.Metrics.offered <- 3;
  let s = Format.asprintf "%a" Dlc.Metrics.pp m in
  Alcotest.(check bool) "mentions offered" true
    (Astring.String.is_infix ~affix:"offered=3" s)

(* --- tracer --- *)

let run_traced ~frames =
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed:1)
      ~distance_m:10_000. ~data_rate_bps:1e8
      ~iframe_error:(Channel.Error_model.uniform ~ber:0. ())
      ~cframe_error:Channel.Error_model.perfect
  in
  let tracer = Dlc.Tracer.create () in
  Dlc.Tracer.attach tracer engine ~forward:duplex.Channel.Duplex.forward
    ~reverse:duplex.Channel.Duplex.reverse;
  let session =
    Lams_dlc.Session.create engine ~params:Lams_dlc.Params.default ~duplex
  in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload:_ -> ());
  for i = 0 to frames - 1 do
    ignore
      (dlc.Dlc.Session.offer (Frame.Payload.of_string (Printf.sprintf "p%d" i))
        : bool)
  done;
  Sim.Engine.run engine ~until:1.;
  dlc.Dlc.Session.stop ();
  Sim.Engine.run engine;
  tracer

let test_tracer_records_both_directions () =
  let tracer = run_traced ~frames:10 in
  let evs = Dlc.Tracer.events tracer in
  Alcotest.(check bool) "events recorded" true (List.length evs > 20);
  let fwd =
    List.exists (fun e -> e.Dlc.Tracer.direction = Dlc.Tracer.Forward) evs
  in
  let rev =
    List.exists (fun e -> e.Dlc.Tracer.direction = Dlc.Tracer.Reverse) evs
  in
  Alcotest.(check bool) "forward seen" true fwd;
  Alcotest.(check bool) "reverse seen" true rev;
  (* chronological order *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Dlc.Tracer.t <= b.Dlc.Tracer.t && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted evs)

let test_tracer_ring_buffer_caps () =
  (* each frame is sent and received: 6,000 frames overflow the ring *)
  let tracer = run_traced ~frames:6_000 in
  Alcotest.(check int) "capped" 10_000 (List.length (Dlc.Tracer.events tracer))

(* The timeline example's lossy session with a fate recorder on the
   forward link, attached before or after a tracer: the tracer adds its
   taps, so the recorder captures the same fates either way. *)
let fates_captured ~tracer_first =
  let engine = Sim.Engine.create () in
  let duplex =
    Channel.Duplex.create_static engine ~rng:(Sim.Rng.create ~seed:1234)
      ~distance_m:150_000. ~data_rate_bps:100e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:2e-5 ())
      ~cframe_error:Channel.Error_model.perfect
  in
  let forward = duplex.Channel.Duplex.forward in
  let tracer = Dlc.Tracer.create () and fates = Trace.Fates.create () in
  let reverse = duplex.Channel.Duplex.reverse in
  let attach_tracer () = Dlc.Tracer.attach tracer engine ~forward ~reverse in
  if tracer_first then attach_tracer ();
  Trace.Fates.attach fates forward;
  if not tracer_first then attach_tracer ();
  let params =
    { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 3e-4; c_depth = 3 }
  in
  let session = Lams_dlc.Session.create engine ~params ~duplex in
  let dlc = Lams_dlc.Session.as_dlc session in
  dlc.Dlc.Session.set_on_deliver (fun ~payload:_ -> ());
  for i = 0 to 29 do
    ignore (dlc.offer (Workload.Arrivals.default_payload ~size:1024 i) : bool)
  done;
  Sim.Engine.run engine ~until:0.05;
  dlc.stop ();
  Sim.Engine.run engine;
  Trace.Fates.length fates

let test_tracer_keeps_earlier_taps () =
  let before = fates_captured ~tracer_first:true in
  Alcotest.(check bool) "fates captured" true (before > 0);
  Alcotest.(check int) "a later tracer keeps the recorder" before
    (fates_captured ~tracer_first:false)

let test_tracer_timeline_renders () =
  let tracer = run_traced ~frames:10 in
  let out =
    Format.asprintf "%a"
      (fun ppf tr -> Dlc.Tracer.pp_timeline ~limit:200 ppf tr)
      tracer
  in
  Alcotest.(check bool) "mentions I-frames" true
    (Astring.String.is_infix ~affix:"I(seq=" out);
  Alcotest.(check bool) "mentions checkpoints" true
    (Astring.String.is_infix ~affix:"CP(#" out)

let suite =
  [
    Alcotest.test_case "counters start zero" `Quick test_counters_start_zero;
    Alcotest.test_case "tracer both directions" `Quick
      test_tracer_records_both_directions;
    Alcotest.test_case "tracer ring buffer" `Quick test_tracer_ring_buffer_caps;
    Alcotest.test_case "tracer keeps earlier taps" `Quick
      test_tracer_keeps_earlier_taps;
    Alcotest.test_case "tracer timeline renders" `Quick test_tracer_timeline_renders;
    Alcotest.test_case "unique and loss" `Quick test_unique_and_loss;
    Alcotest.test_case "buffer sampling peaks" `Quick test_buffer_sampling_peaks;
    Alcotest.test_case "throughput efficiency" `Quick test_throughput_efficiency;
    Alcotest.test_case "efficiency degenerate" `Quick test_efficiency_degenerate;
    Alcotest.test_case "pp renders" `Quick test_pp_renders;
  ]
