(* Tests for the simulation engine and the restartable timer. *)

let test_clock_advances () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> seen := 2 :: !seen));
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> seen := 1 :: !seen));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 2; 1 ] !seen;
  Alcotest.(check (float 1e-9)) "clock at last event" 2. (Sim.Engine.now e)

let test_schedule_inside_event () =
  let e = Sim.Engine.create () in
  let fired = ref 0. in
  ignore
    (Sim.Engine.schedule e ~delay:1. (fun () ->
         ignore (Sim.Engine.schedule e ~delay:0.5 (fun () -> fired := Sim.Engine.now e))));
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "nested schedule" 1.5 !fired

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay -5") (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-5.) (fun () -> ())));
  ignore (Sim.Engine.schedule e ~delay:0. (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "zero delay fires now" 0. (Sim.Engine.now e)

let test_schedule_at_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:5. (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument
    "Engine.schedule_at: time 1 is before now 5")
    (fun () -> ignore (Sim.Engine.schedule_at e ~time:1. (fun () -> ())))

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Alcotest.(check bool) "cancel ok" true (Sim.Engine.cancel e id);
  Sim.Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired

let test_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run e ~until:5.5;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at until" 5.5 (Sim.Engine.now e);
  Alcotest.(check int) "five pending" 5 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "all fired" 10 !count

(* An [until] behind the clock returns at once: the clock does not run
   back, so the past stays closed to [schedule_at] and events keep their
   time order. *)
let test_run_until_past () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let at time =
    ignore
      (Sim.Engine.schedule_at e ~time (fun () -> order := time :: !order)
        : Sim.Engine.event_id)
  in
  at 5.;
  at 10.;
  Sim.Engine.run e ~until:5.;
  let last = Sim.Engine.last_seq e in
  Sim.Engine.run e ~until:2.;
  Alcotest.(check (float 0.)) "clock stays" 5. (Sim.Engine.now e);
  Alcotest.(check int) "queue stays" 1 (Sim.Engine.pending e);
  Alcotest.(check int) "last_seq stays" last (Sim.Engine.last_seq e);
  Alcotest.check_raises "the past stays past"
    (Invalid_argument "Engine.schedule_at: time 3 is before now 5")
    (fun () -> at 3.);
  Sim.Engine.run e;
  Alcotest.(check (list (float 0.))) "time order" [ 5.; 10. ] (List.rev !order)

let test_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Sim.Engine.schedule e ~delay:1. loop)
  in
  ignore (Sim.Engine.schedule e ~delay:1. loop);
  Sim.Engine.run e ~max_events:100;
  Alcotest.(check int) "bounded" 100 !count

let test_step () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.run e ~max_events:1;
  Alcotest.(check (float 0.)) "empty step" 0. (Sim.Engine.now e);
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> incr fired));
  Sim.Engine.run e ~max_events:1;
  Alcotest.(check (pair int (float 0.)))
    "one step" (1, 1.) (!fired, Sim.Engine.now e);
  Sim.Engine.run e ~max_events:1;
  Sim.Engine.run e ~max_events:1;
  Alcotest.(check (pair int int)) "drained" (2, 0) (!fired, Sim.Engine.pending e)

(* [next_seq] and [last_seq] expose the (time, seq) order to components
   that settle events of their own in place. *)
let test_event_order_values () =
  let e = Sim.Engine.create () in
  Alcotest.(check int) "nothing scheduled" 0 (Sim.Engine.next_seq e);
  Alcotest.(check int) "a fresh engine is caught up" max_int (Sim.Engine.last_seq e);
  let seen = ref [] in
  let note () = seen := (Sim.Engine.last_seq e, Sim.Engine.next_seq e) :: !seen in
  let at time f = ignore (Sim.Engine.schedule_at e ~time f : Sim.Engine.event_id) in
  at 1. note;
  at 1. note;
  at 2. (fun () ->
      note ();
      at 2. note);
  at 3. (fun () -> failwith "boom");
  Alcotest.(check int) "four scheduled" 4 (Sim.Engine.next_seq e);
  Sim.Engine.run e ~max_events:1;
  Alcotest.(check (list (pair int int))) "inside a callback" [ (0, 4) ] !seen;
  Alcotest.(check int) "after max_events: the last event run" 0
    (Sim.Engine.last_seq e);
  Sim.Engine.run e ~until:1.5;
  Alcotest.(check int) "after run ~until: caught up" max_int (Sim.Engine.last_seq e);
  Sim.Engine.run e ~until:2.5;
  Alcotest.(check (list (pair int int)))
    "seqs in (time, seq) order; reading consumes none"
    [ (0, 4); (1, 4); (2, 4); (4, 5) ]
    (List.rev !seen);
  Alcotest.check_raises "the callback raises" (Failure "boom") (fun () ->
      Sim.Engine.run e);
  Alcotest.(check int) "after a raise: the raising event" 3 (Sim.Engine.last_seq e);
  Alcotest.(check (float 0.)) "at its time" 3. (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "after draining: caught up" max_int (Sim.Engine.last_seq e)

(* --- Timer --- *)

let test_timer_fires () =
  let e = Sim.Engine.create () in
  let fired = ref nan in
  let tm = Sim.Timer.create e ~duration:2. ~on_expire:(fun () -> fired := Sim.Engine.now e) in
  Sim.Timer.start tm;
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "fires at duration" 2. !fired

let test_timer_stop () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let tm = Sim.Timer.create e ~duration:2. ~on_expire:(fun () -> fired := true) in
  Sim.Timer.start tm;
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> Sim.Timer.stop tm));
  Sim.Engine.run e;
  Alcotest.(check bool) "stopped timer silent" false !fired;
  Alcotest.(check bool) "not running" false (Sim.Timer.is_running tm)

let test_timer_reset_extends () =
  let e = Sim.Engine.create () in
  let fired = ref nan in
  let tm = Sim.Timer.create e ~duration:2. ~on_expire:(fun () -> fired := Sim.Engine.now e) in
  Sim.Timer.start tm;
  ignore (Sim.Engine.schedule e ~delay:1.5 (fun () -> Sim.Timer.reset tm));
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "fires after reset" 3.5 !fired

let test_timer_restart_after_fire () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let tm = Sim.Timer.create e ~duration:1. ~on_expire:(fun () -> incr count) in
  Sim.Timer.start tm;
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> Sim.Timer.start tm));
  Sim.Engine.run e;
  Alcotest.(check int) "fired twice" 2 !count

let test_timer_remaining () =
  let e = Sim.Engine.create () in
  let tm = Sim.Timer.create e ~duration:4. ~on_expire:(fun () -> ()) in
  Alcotest.(check (option (float 1e-9))) "stopped: none" None (Sim.Timer.remaining tm);
  Sim.Timer.start tm;
  ignore
    (Sim.Engine.schedule e ~delay:1. (fun () ->
         match Sim.Timer.remaining tm with
         | Some r -> Alcotest.(check (float 1e-9)) "remaining 3" 3. r
         | None -> Alcotest.fail "timer should be running"));
  Sim.Engine.run e

let test_timer_set_duration () =
  let e = Sim.Engine.create () in
  let fired = ref nan in
  let tm = Sim.Timer.create e ~duration:2. ~on_expire:(fun () -> fired := Sim.Engine.now e) in
  Sim.Timer.set_duration tm 0.5;
  Sim.Timer.start tm;
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "new duration used" 0.5 !fired

let prop_callbacks_fire_in_time_order =
  QCheck2.Test.make ~name:"engine fires callbacks in nondecreasing time order"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (float_range 0. 50.))
    (fun delays ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule e ~delay:d (fun () ->
                 fired := Sim.Engine.now e :: !fired)))
        delays;
      Sim.Engine.run e;
      let times = List.rev !fired in
      List.length times = List.length delays
      &&
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono times)

let prop_cancelled_never_fire_rest_all_fire =
  QCheck2.Test.make ~name:"cancellation is exact under random interleaving"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 80) (pair (float_range 0. 20.) bool))
    (fun entries ->
      let e = Sim.Engine.create () in
      let fired = ref 0 in
      let ids =
        List.map
          (fun (d, cancel) ->
            (Sim.Engine.schedule e ~delay:d (fun () -> incr fired), cancel))
          entries
      in
      let cancelled =
        List.fold_left
          (fun acc (id, cancel) ->
            if cancel && Sim.Engine.cancel e id then acc + 1 else acc)
          0 ids
      in
      Sim.Engine.run e;
      !fired = List.length entries - cancelled)

let suite =
  [
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    QCheck_alcotest.to_alcotest prop_callbacks_fire_in_time_order;
    QCheck_alcotest.to_alcotest prop_cancelled_never_fire_rest_all_fire;
    Alcotest.test_case "nested schedule" `Quick test_schedule_inside_event;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "schedule_at past rejected" `Quick test_schedule_at_past_rejected;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "max events" `Quick test_max_events;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "timer fires" `Quick test_timer_fires;
    Alcotest.test_case "timer stop" `Quick test_timer_stop;
    Alcotest.test_case "timer reset extends" `Quick test_timer_reset_extends;
    Alcotest.test_case "timer restart after fire" `Quick test_timer_restart_after_fire;
    Alcotest.test_case "timer remaining" `Quick test_timer_remaining;
    Alcotest.test_case "timer set_duration" `Quick test_timer_set_duration;
    Alcotest.test_case "event order values" `Quick test_event_order_values;
    Alcotest.test_case "run until behind the clock" `Quick test_run_until_past;
  ]
