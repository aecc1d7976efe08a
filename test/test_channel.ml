(* Channel tests: error models and the link (timing, FIFO, corruption,
   outages). *)

let test_perfect_never_corrupts () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    match
      Channel.Model.fate Channel.Error_model.perfect rng ~header_bits:100
        ~payload_bits:8000
    with
    | Channel.Error_model.Clean -> ()
    | _ -> Alcotest.fail "perfect channel corrupted a frame"
  done

let test_uniform_fer_matches_analytic () =
  let ber = 1e-4 in
  let bits = 8000 in
  let model = Channel.Error_model.uniform ~ber () in
  let expected = Channel.Model.frame_error_prob model ~bits in
  let rng = Sim.Rng.create ~seed:2 in
  let n = 50_000 in
  let bad = ref 0 in
  for _ = 1 to n do
    match Channel.Model.fate model rng ~header_bits:104 ~payload_bits:(bits - 104) with
    | Channel.Error_model.Clean -> ()
    | _ -> incr bad
  done;
  let freq = float_of_int !bad /. float_of_int n in
  if Float.abs (freq -. expected) > 0.01 then
    Alcotest.failf "uniform FER %g != %g" freq expected

let test_ber_inverse () =
  let bits = 8104 in
  let fer = 0.08 in
  let ber = Channel.Error_model.ber_for_frame_error_prob ~bits ~fer in
  let model = Channel.Error_model.uniform ~ber () in
  let recovered = Channel.Model.frame_error_prob model ~bits in
  if Float.abs (recovered -. fer) > 1e-9 then
    Alcotest.failf "inverse broken: %g != %g" recovered fer

let test_ge_stationary_rate () =
  let model =
    Channel.Error_model.gilbert_elliott ~ber_good:0. ~ber_bad:1.
      ~mean_burst_bits:100. ~mean_gap_bits:900. ()
  in
  (* stationary bad fraction = 0.1; a 1-bit frame is corrupt iff in the
     bad state, so corruption frequency ~ 0.1 *)
  let rng = Sim.Rng.create ~seed:4 in
  let n = 100_000 in
  let bad = ref 0 in
  for _ = 1 to n do
    match Channel.Model.fate model rng ~header_bits:1 ~payload_bits:0 with
    | Channel.Error_model.Clean -> ()
    | _ -> incr bad
  done;
  let freq = float_of_int !bad /. float_of_int n in
  if Float.abs (freq -. 0.1) > 0.02 then
    Alcotest.failf "GE stationary bad fraction %g != 0.1" freq

let test_ge_burstiness () =
  (* errors should cluster: P(error | previous frame errored) must be far
     above the stationary rate *)
  let model =
    Channel.Error_model.gilbert_elliott ~ber_good:0. ~ber_bad:1.
      ~mean_burst_bits:500. ~mean_gap_bits:9500. ()
  in
  let rng = Sim.Rng.create ~seed:5 in
  let n = 200_000 in
  let prev_bad = ref false in
  let after_bad = ref 0 and after_bad_bad = ref 0 and total_bad = ref 0 in
  for _ = 1 to n do
    let bad =
      match Channel.Model.fate model rng ~header_bits:10 ~payload_bits:0 with
      | Channel.Error_model.Clean -> false
      | _ -> true
    in
    if !prev_bad then begin
      incr after_bad;
      if bad then incr after_bad_bad
    end;
    if bad then incr total_bad;
    prev_bad := bad
  done;
  let p_cond = float_of_int !after_bad_bad /. float_of_int !after_bad in
  let p_marginal = float_of_int !total_bad /. float_of_int n in
  if p_cond < 3. *. p_marginal then
    Alcotest.failf "not bursty: P(bad|bad)=%g vs P(bad)=%g" p_cond p_marginal

let test_copy_independent () =
  let model =
    Channel.Error_model.gilbert_elliott ~ber_good:0. ~ber_bad:1.
      ~mean_burst_bits:10. ~mean_gap_bits:10. ()
  in
  let copy = Channel.Model.copy model in
  let r1 = Sim.Rng.create ~seed:6 and r2 = Sim.Rng.create ~seed:6 in
  (* identical streams on copies with identical rngs *)
  for _ = 1 to 100 do
    let a = Channel.Model.fate model r1 ~header_bits:5 ~payload_bits:5 in
    let b = Channel.Model.fate copy r2 ~header_bits:5 ~payload_bits:5 in
    if a <> b then Alcotest.fail "copies diverged under identical draws"
  done

(* --- batched fates --- *)

let test_fates_into_uniform_stream_identical () =
  (* the uniform batch path must consume the rng exactly like n
     sequential [fate] calls: existing traces depend on the draw order *)
  let mk () = Channel.Error_model.uniform ~ber:2e-4 () in
  let seq_model = mk () and batch_model = mk () in
  let r1 = Sim.Rng.create ~seed:11 and r2 = Sim.Rng.create ~seed:11 in
  let n = 2_000 in
  let expected =
    Array.init n (fun _ ->
        Channel.Model.fate seq_model r1 ~header_bits:104 ~payload_bits:8192)
  in
  let got = Array.make n Channel.Error_model.Clean in
  Channel.Model.fates_into batch_model r2 ~header_bits:104
    ~payload_bits:8192 got ~n;
  Array.iteri
    (fun i f ->
      if f <> expected.(i) then Alcotest.failf "fate %d diverged" i)
    got;
  Alcotest.(check bool) "rng streams aligned" true
    (Sim.Rng.float r1 1. = Sim.Rng.float r2 1.)

let test_fates_into_perfect_and_bounds () =
  let rng = Sim.Rng.create ~seed:12 in
  let dst = Array.make 8 Channel.Error_model.Lost in
  (* only the first n slots are written *)
  Channel.Model.fates_into Channel.Error_model.perfect rng ~header_bits:8
    ~payload_bits:8 dst ~n:5;
  Array.iteri
    (fun i f ->
      let want =
        if i < 5 then Channel.Error_model.Clean else Channel.Error_model.Lost
      in
      if f <> want then Alcotest.failf "slot %d clobbered" i)
    dst;
  Alcotest.check_raises "n too large"
    (Invalid_argument "Channel.Model.fates_into: n out of range") (fun () ->
      Channel.Model.fates_into Channel.Error_model.perfect rng
        ~header_bits:8 ~payload_bits:8 dst ~n:9);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Channel.Model.fates_into: n out of range") (fun () ->
      Channel.Model.fates_into Channel.Error_model.perfect rng
        ~header_bits:8 ~payload_bits:8 dst ~n:(-1))

let test_fates_into_ge_matches_sequential_rate () =
  (* the GE batch path draws a different (but identically distributed)
     stream; check it against the sequential path statistically: same
     overall corruption rate and comparable burstiness over a long run *)
  let mk () =
    Channel.Error_model.gilbert_elliott ~ber_good:1e-6 ~ber_bad:5e-3
      ~mean_burst_bits:20_000. ~mean_gap_bits:200_000. ()
  in
  let n = 30_000 in
  let bad_of arr =
    Array.fold_left
      (fun acc f -> if f = Channel.Error_model.Clean then acc else acc + 1)
      0 arr
  in
  let seq_model = mk () in
  let r1 = Sim.Rng.create ~seed:13 in
  let seq_fates =
    Array.init n (fun _ ->
        Channel.Model.fate seq_model r1 ~header_bits:104
          ~payload_bits:8192)
  in
  let batch_model = mk () in
  let r2 = Sim.Rng.create ~seed:14 in
  let batch_fates = Array.make n Channel.Error_model.Clean in
  Channel.Model.fates_into batch_model r2 ~header_bits:104
    ~payload_bits:8192 batch_fates ~n;
  let p_seq = float_of_int (bad_of seq_fates) /. float_of_int n in
  let p_batch = float_of_int (bad_of batch_fates) /. float_of_int n in
  if Float.abs (p_seq -. p_batch) > 0.01 then
    Alcotest.failf "corruption rates diverged: seq %g, batched %g" p_seq p_batch

let test_fates_allocates_fresh_array () =
  let model = Channel.Error_model.uniform ~ber:1e-3 () in
  let rng = Sim.Rng.create ~seed:15 in
  let a = Channel.Model.fates model rng ~header_bits:8 ~payload_bits:64 ~n:10 in
  Alcotest.(check int) "length" 10 (Array.length a);
  let empty =
    Channel.Model.fates model rng ~header_bits:8 ~payload_bits:64 ~n:0
  in
  Alcotest.(check int) "empty" 0 (Array.length empty)

(* --- Link --- *)

let make_link ?(ber = 0.) ?(distance = 3_000_000.) engine seed =
  Channel.Link.create engine
    ~rng:(Sim.Rng.create ~seed)
    ~distance:(Channel.Link.Fixed distance) ~data_rate_bps:1e6
    ~iframe_error:(Channel.Error_model.uniform ~ber ())
    ~cframe_error:Channel.Error_model.perfect

let data ~seq s =
  Frame.Wire.Data (Frame.Iframe.create ~seq ~payload:(Frame.Payload.of_string s))

let iframe ~seq ~bytes = data ~seq (String.make bytes 'p')

let test_link_delivery_time () =
  let engine = Sim.Engine.create () in
  let link = make_link engine 1 in
  let arrival = ref nan in
  Channel.Link.set_receiver link (fun _ -> arrival := Sim.Engine.now engine);
  let f = iframe ~seq:0 ~bytes:112 in
  (* 112 + 13 overhead = 125 bytes = 1000 bits at 1 Mb/s = 1 ms tx;
     3000 km = 10.007 ms propagation *)
  Channel.Link.send link f;
  Sim.Engine.run engine;
  let expected = 0.001 +. (3_000_000. /. Channel.Link.speed_of_light) in
  if Float.abs (!arrival -. expected) > 1e-6 then
    Alcotest.failf "arrival %g != %g" !arrival expected

let test_link_fifo_and_queueing () =
  let engine = Sim.Engine.create () in
  let link = make_link engine 2 in
  let seen = ref [] in
  Channel.Link.set_receiver link (fun rx ->
      match rx.Channel.Link.frame with
      | Frame.Wire.Data i -> seen := i.Frame.Iframe.seq :: !seen
      | _ -> ());
  for seq = 0 to 9 do
    Channel.Link.send link (iframe ~seq ~bytes:112)
  done;
  Alcotest.(check bool) "busy while serialising" true (Channel.Link.busy link);
  Alcotest.(check int) "queue behind transmitter" 9 (Channel.Link.queue_length link);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seen)

let test_link_on_idle () =
  let engine = Sim.Engine.create () in
  let link = make_link engine 3 in
  Channel.Link.set_receiver link (fun _ -> ());
  let idle_count = ref 0 in
  Channel.Link.set_on_idle link (fun () -> incr idle_count);
  Channel.Link.send link (iframe ~seq:0 ~bytes:10);
  Channel.Link.send link (iframe ~seq:1 ~bytes:10);
  Sim.Engine.run engine;
  Alcotest.(check int) "idle fires once per drain" 1 !idle_count

let test_link_outage_loses_frames () =
  let engine = Sim.Engine.create () in
  let link = make_link engine 4 in
  let received = ref 0 in
  Channel.Link.set_receiver link (fun _ -> incr received);
  Channel.Link.set_down link;
  Channel.Link.send link (iframe ~seq:0 ~bytes:10);
  Sim.Engine.run engine;
  Alcotest.(check int) "nothing arrives" 0 !received;
  Alcotest.(check int) "counted lost" 1 (Channel.Link.stats link).Channel.Link.frames_lost;
  Channel.Link.set_up link;
  Channel.Link.send link (iframe ~seq:1 ~bytes:10);
  Sim.Engine.run engine;
  Alcotest.(check int) "delivers after recovery" 1 !received

let test_link_outage_mid_serialisation () =
  (* Outage fate is decided twice: at serialisation start (a frame
     started while dark is gone for good, even if the link returns
     before arrival) and again at arrival (a frame started while lit is
     claimed only if the link is still dark when it lands). At 1 Mb/s a
     112 B I-frame serialises in 1 ms and flies ~10 ms. *)
  let engine = Sim.Engine.create () in
  let link = make_link engine 41 in
  let received = ref 0 in
  Channel.Link.set_receiver link (fun _ -> incr received);
  let at delay f =
    ignore (Sim.Engine.schedule engine ~delay f : Sim.Engine.event_id)
  in
  (* A: cut mid-serialisation, restored before arrival -> delivered *)
  at 0. (fun () -> Channel.Link.send link (iframe ~seq:0 ~bytes:112));
  at 0.0005 (fun () -> Channel.Link.set_down link);
  at 0.002 (fun () -> Channel.Link.set_up link);
  (* B: cut mid-serialisation, still dark at arrival -> lost *)
  at 0.020 (fun () -> Channel.Link.send link (iframe ~seq:1 ~bytes:112));
  at 0.0205 (fun () -> Channel.Link.set_down link);
  at 0.035 (fun () -> Channel.Link.set_up link);
  (* C: serialisation starts while dark -> lost even though the link is
     back up before the would-be arrival *)
  at 0.039 (fun () -> Channel.Link.set_down link);
  at 0.040 (fun () -> Channel.Link.send link (iframe ~seq:2 ~bytes:112));
  at 0.042 (fun () -> Channel.Link.set_up link);
  (* D: clean -> delivered *)
  at 0.043 (fun () -> Channel.Link.send link (iframe ~seq:3 ~bytes:112));
  Sim.Engine.run engine;
  Alcotest.(check int) "A and D delivered" 2 !received;
  Alcotest.(check int) "B and C counted lost" 2
    (Channel.Link.stats link).Channel.Link.frames_lost

let test_link_corruption_statuses () =
  let engine = Sim.Engine.create () in
  (* ber=1 corrupts every frame; header corruption must be flagged *)
  let link = make_link ~ber:1.0 engine 5 in
  let statuses = ref [] in
  Channel.Link.set_receiver link (fun rx -> statuses := rx.Channel.Link.status :: !statuses);
  Channel.Link.send link (iframe ~seq:0 ~bytes:10);
  Sim.Engine.run engine;
  (match !statuses with
  | [ Channel.Link.Rx_header_corrupt ] -> ()
  | _ -> Alcotest.fail "expected header corruption at ber=1");
  Alcotest.(check int) "corruption counted" 1
    (Channel.Link.stats link).Channel.Link.frames_corrupted

let test_control_frames_use_control_model () =
  let engine = Sim.Engine.create () in
  (* I-frame channel destroys everything; control channel is perfect *)
  let link =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:6)
      ~distance:(Channel.Link.Fixed 1000.) ~data_rate_bps:1e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:1.0 ())
      ~cframe_error:Channel.Error_model.perfect
  in
  let ok = ref 0 in
  Channel.Link.set_receiver link (fun rx ->
      if rx.Channel.Link.status = Channel.Link.Rx_ok then incr ok);
  Channel.Link.send link
    (Frame.Wire.Control (Frame.Cframe.request_nak ~issue_time:0.));
  Channel.Link.send link (iframe ~seq:0 ~bytes:10);
  Sim.Engine.run engine;
  Alcotest.(check int) "only the control frame survives" 1 !ok

let test_moving_link_distance () =
  let engine = Sim.Engine.create () in
  (* distance grows 1000 km per second *)
  let link =
    Channel.Link.create engine
      ~rng:(Sim.Rng.create ~seed:7)
      ~distance:(Channel.Link.Moving (fun t -> 1_000_000. +. (1e9 *. t)))
      ~data_rate_bps:1e9 ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let arrivals = ref [] in
  Channel.Link.set_receiver link (fun _ -> arrivals := Sim.Engine.now engine :: !arrivals);
  Channel.Link.send link (iframe ~seq:0 ~bytes:10);
  ignore
    (Sim.Engine.schedule engine ~delay:0.5 (fun () ->
         Channel.Link.send link (iframe ~seq:1 ~bytes:10)));
  Sim.Engine.run engine;
  match List.rev !arrivals with
  | [ a; b ] ->
      (* second frame departs when the link is much longer *)
      if not (b -. 0.5 > a +. 1e-3) then
        Alcotest.failf "growing distance not reflected: %g vs %g" a b
  | _ -> Alcotest.fail "expected two arrivals"

(* [n] back-to-back 1 kB frames on a link [distance] at 300 Mbit/s:
   the arrival instant of each frame in the order they arrived, each
   frame's departure instant, and the most events the engine held at
   once while they flew. *)
let fly ~distance ~n =
  let engine = Sim.Engine.create () in
  let link =
    Channel.Link.create engine ~rng:(Sim.Rng.create ~seed:12) ~distance
      ~data_rate_bps:300e6 ~iframe_error:Channel.Error_model.perfect
      ~cframe_error:Channel.Error_model.perfect
  in
  let departures = Array.make n nan in
  let arrivals = ref [] in
  let peak = ref 0 in
  let watch () = peak := max !peak (Sim.Engine.pending engine) in
  (* a frame departs one serialisation time after it starts, the float
     the link's end-of-serialisation event is scheduled at *)
  let started = ref 0 in
  Channel.Link.add_tap link (function
    | Channel.Link.Tap_tx f ->
        departures.(!started) <-
          Sim.Engine.now engine +. Channel.Link.tx_time link f;
        incr started;
        watch ()
    | _ -> ());
  Channel.Link.set_receiver link (fun rx ->
      watch ();
      match rx.Channel.Link.frame with
      | Frame.Wire.Data i ->
          arrivals := (i.Frame.Iframe.seq, Sim.Engine.now engine) :: !arrivals
      | _ -> ());
  for seq = 0 to n - 1 do
    Channel.Link.send link (iframe ~seq ~bytes:1024)
  done;
  Sim.Engine.run engine;
  (List.rev !arrivals, departures, !peak, link)

(* A 4,000 km link at 300 Mbit/s keeps about 480 frames in flight, but
   the engine holds only the transmitter's end of serialisation and the
   oldest frame's arrival: the others wait in the link's ring. Each
   still lands at its departure plus the light time, in FIFO order. *)
let test_link_one_pending_arrival () =
  let n = 2_000 in
  let arrivals, departures, peak, link =
    fly ~distance:(Channel.Link.Fixed 4_000_000.) ~n
  in
  Alcotest.(check (list int)) "FIFO order" (List.init n Fun.id)
    (List.map fst arrivals);
  List.iter
    (fun (seq, at) ->
      let dep = departures.(seq) in
      let expected = dep +. Channel.Link.propagation_delay link ~at:dep in
      if at <> expected then
        Alcotest.failf "frame %d arrived at %h, not %h" seq at expected)
    arrivals;
  if peak > 3 then Alcotest.failf "%d events pending while frames flew" peak

(* A distance shrinking faster than light would make later frames
   overtake earlier ones; the link clamps each arrival to the previous
   one instead, so frames land in FIFO order, many at one instant. *)
let test_link_fifo_clamp_shrinking () =
  let n = 100 in
  let arrivals, departures, _, link =
    fly ~distance:(Channel.Link.Moving (fun t -> 4_000_000. -. (1e9 *. t))) ~n
  in
  Alcotest.(check (list int)) "FIFO order" (List.init n Fun.id)
    (List.map fst arrivals);
  let clamped = ref 0 in
  ignore
    (List.fold_left
       (fun last (seq, at) ->
         let dep = departures.(seq) in
         let light = dep +. Channel.Link.propagation_delay link ~at:dep in
         if light < last then incr clamped;
         let expected = if light < last then last else light in
         if at <> expected then
           Alcotest.failf "frame %d arrived at %h, not %h" seq at expected;
         expected)
       0. arrivals
      : float);
  if !clamped = 0 then Alcotest.fail "the distance never shrank fast enough"

(* An event scheduled, after a frame departed, at exactly that frame's
   arrival instant runs after the arrival, as it would if every arrival
   were queued at departure: the link takes each arrival's engine
   tie-break number at departure, not when the frame reaches the front
   of its ring. *)
let test_link_arrival_keeps_departure_order () =
  let engine = Sim.Engine.create () in
  let link = make_link engine 13 in
  let log = ref [] in
  Channel.Link.set_receiver link (fun rx ->
      match rx.Channel.Link.frame with
      | Frame.Wire.Data i ->
          let what = Printf.sprintf "frame %d" i.Frame.Iframe.seq in
          log := (what, Sim.Engine.now engine) :: !log
      | _ -> ());
  let f0 = iframe ~seq:0 ~bytes:112 and f1 = iframe ~seq:1 ~bytes:112 in
  Channel.Link.send link f0;
  Channel.Link.send link f1;
  (* frame 1 departs after both serialisations and arrives ~10 ms later,
     after frame 0 *)
  let dep1 = Channel.Link.tx_time link f0 +. Channel.Link.tx_time link f1 in
  let arr1 = dep1 +. Channel.Link.propagation_delay link ~at:dep1 in
  let mark () = log := ("mark", Sim.Engine.now engine) :: !log in
  let at time f =
    ignore (Sim.Engine.schedule_at engine ~time f : Sim.Engine.event_id)
  in
  at (dep1 +. 1e-4) (fun () -> at arr1 mark);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "arrival before the later event"
    [ "frame 0"; "frame 1"; "mark" ]
    (List.rev_map fst !log);
  Alcotest.(check bool) "one instant" true
    (List.for_all (fun (what, at) -> what = "frame 0" || at = arr1) !log)

(* --- error positions and the bit-level coded path --- *)

(* The error positions of one frame, through the scratch vector the
   coded path uses. *)
let error_positions model rng ~bits =
  let scratch = Channel.Model.Positions.create () in
  Channel.Model.error_positions_into model rng ~bits scratch;
  let module P = Channel.Model.Positions in
  List.init (P.length scratch) (P.get scratch)

let test_error_positions_rate () =
  let model = Channel.Error_model.uniform ~ber:0.01 () in
  let rng = Sim.Rng.create ~seed:9 in
  let total = ref 0 in
  let trials = 200 and bits = 10_000 in
  for _ = 1 to trials do
    let ps = error_positions model rng ~bits in
    List.iter (fun p -> if p < 0 || p >= bits then Alcotest.failf "pos %d" p) ps;
    (* sorted and distinct *)
    let rec check = function
      | a :: (b :: _ as rest) ->
          if a >= b then Alcotest.fail "not sorted/distinct";
          check rest
      | _ -> ()
    in
    check ps;
    total := !total + List.length ps
  done;
  let rate = float_of_int !total /. float_of_int (trials * bits) in
  if Float.abs (rate -. 0.01) > 0.002 then
    Alcotest.failf "error rate %g != 0.01" rate

let test_error_positions_perfect () =
  let rng = Sim.Rng.create ~seed:10 in
  Alcotest.(check (list int)) "no errors" []
    (error_positions Channel.Error_model.perfect rng ~bits:1000)

let coded_path ?(error_model = Channel.Error_model.perfect) ?(seed = 11) () =
  Channel.Coded_path.create
    ~rng:(Sim.Rng.create ~seed)
    ~iframe_code:Fec.Code.hamming74 ~cframe_code:Fec.Code.conv_default
    ~error_model

let test_coded_path_clean_roundtrip () =
  let path = coded_path () in
  let frames =
    [
      data ~seq:5 "clean payload";
      Frame.Wire.Control
        (Frame.Cframe.checkpoint ~cp_seq:2 ~issue_time:1.5 ~stop_go:false
           ~enforced:false ~next_expected:9 ~naks:[| 4; 6 |]);
      Frame.Wire.Hdlc_control
        (Frame.Hframe.create ~kind:Frame.Hframe.Srej ~nr:3 ~pf:true);
    ]
  in
  List.iter
    (fun frame ->
      let outcome, decoded = Channel.Coded_path.transmit path frame in
      Alcotest.(check bool) "clean" true (outcome.Channel.Coded_path.status = Channel.Link.Rx_ok);
      Alcotest.(check int) "no injected errors" 0 outcome.Channel.Coded_path.bit_errors;
      match decoded with
      | Some _ -> ()
      | None -> Alcotest.fail "frame lost on a clean path")
    frames

let test_coded_path_corrects_light_noise () =
  (* hamming on the I-frame corrects sub-threshold noise: residual status
     distribution must be far better than raw *)
  let path =
    coded_path ~error_model:(Channel.Error_model.uniform ~ber:2e-4 ()) ~seed:12 ()
  in
  let frame = data ~seq:0 (String.make 64 'q') in
  let fer = Channel.Coded_path.residual_fer path frame ~trials:300 in
  let raw_fer =
    Channel.Model.frame_error_prob
      (Channel.Error_model.uniform ~ber:2e-4 ())
      ~bits:(8 * Frame.Wire.size_bytes frame)
  in
  if not (fer < raw_fer /. 2.) then
    Alcotest.failf "coding did not help: residual %g vs raw %g" fer raw_fer

let test_coded_path_payload_corrupt_identifies_seq () =
  (* heavy noise with identity coding: when only the payload breaks, the
     receiver still learns the seq — the NAK-enabling property *)
  let path =
    Channel.Coded_path.create
      ~rng:(Sim.Rng.create ~seed:13)
      ~iframe_code:Fec.Code.identity ~cframe_code:Fec.Code.identity
      ~error_model:(Channel.Error_model.uniform ~ber:2e-3 ())
  in
  let frame = data ~seq:4242 (String.make 400 'z') in
  let saw_payload_corrupt = ref false in
  for _ = 1 to 200 do
    match Channel.Coded_path.transmit path frame with
    | { Channel.Coded_path.status = Channel.Link.Rx_payload_corrupt; _ },
      Some (Frame.Wire.Data i) ->
        Alcotest.(check int) "seq recovered" 4242 i.Frame.Iframe.seq;
        saw_payload_corrupt := true
    | _ -> ()
  done;
  Alcotest.(check bool) "payload-corrupt cases occurred" true !saw_payload_corrupt

let suite =
  [
    Alcotest.test_case "perfect never corrupts" `Quick test_perfect_never_corrupts;
    Alcotest.test_case "uniform FER analytic" `Slow test_uniform_fer_matches_analytic;
    Alcotest.test_case "ber inverse" `Quick test_ber_inverse;
    Alcotest.test_case "GE stationary rate" `Slow test_ge_stationary_rate;
    Alcotest.test_case "GE burstiness" `Slow test_ge_burstiness;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "batched fates: uniform stream-identical" `Quick
      test_fates_into_uniform_stream_identical;
    Alcotest.test_case "batched fates: perfect + bounds" `Quick
      test_fates_into_perfect_and_bounds;
    Alcotest.test_case "batched fates: GE rate matches sequential" `Slow
      test_fates_into_ge_matches_sequential_rate;
    Alcotest.test_case "fates allocates fresh array" `Quick
      test_fates_allocates_fresh_array;
    Alcotest.test_case "link delivery time" `Quick test_link_delivery_time;
    Alcotest.test_case "link FIFO + queueing" `Quick test_link_fifo_and_queueing;
    Alcotest.test_case "link on_idle" `Quick test_link_on_idle;
    Alcotest.test_case "link outage" `Quick test_link_outage_loses_frames;
    Alcotest.test_case "link outage mid-serialisation" `Quick
      test_link_outage_mid_serialisation;
    Alcotest.test_case "corruption statuses" `Quick test_link_corruption_statuses;
    Alcotest.test_case "control frames use control model" `Quick
      test_control_frames_use_control_model;
    Alcotest.test_case "moving link distance" `Quick test_moving_link_distance;
    Alcotest.test_case "link queues one arrival" `Quick
      test_link_one_pending_arrival;
    Alcotest.test_case "link FIFO clamp on a shrinking distance" `Quick
      test_link_fifo_clamp_shrinking;
    Alcotest.test_case "link arrival keeps its departure order" `Quick
      test_link_arrival_keeps_departure_order;
    Alcotest.test_case "error positions rate" `Slow test_error_positions_rate;
    Alcotest.test_case "error positions perfect" `Quick test_error_positions_perfect;
    Alcotest.test_case "coded path clean roundtrip" `Quick test_coded_path_clean_roundtrip;
    Alcotest.test_case "coded path corrects noise" `Quick test_coded_path_corrects_light_noise;
    Alcotest.test_case "coded path identifies seq" `Quick
      test_coded_path_payload_corrupt_identifies_seq;
  ]
