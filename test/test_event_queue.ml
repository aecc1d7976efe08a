(* Tests for the simulation event queue: ordering, tie-breaking,
   cancellation. *)

(* The queue through the two calls the engine makes: [add_cell] with
   the time in a one-element cell, and [pop_run], here one event at a
   time. *)
let add q ~time v = Sim.Event_queue.add_cell q ~cell:[| time |] ~aux:0 v

let pop q =
  let clock = [| nan |] and popped = ref None in
  ignore
    (Sim.Event_queue.pop_run q ~clock ~until:infinity ~max_events:1
       ~k:(fun v _ -> popped := Some v)
      : Sim.Event_queue.run_stop);
  Option.map (fun v -> (clock.(0), v)) !popped

(* Whether no pending event is due before [t]. *)
let none_before q t =
  Sim.Event_queue.pop_run q ~clock:[| nan |] ~until:(Float.pred t) ~max_events:1
    ~k:(fun _ _ -> ())
  <> Sim.Event_queue.Max_events

let test_pop_order () =
  let q = Sim.Event_queue.create ~dummy:"" () in
  ignore (add q ~time:3. "c");
  ignore (add q ~time:1. "a");
  ignore (add q ~time:2. "b");
  let next () =
    match pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "queue empty"
  in
  Alcotest.(check string) "first" "a" (next ());
  Alcotest.(check string) "second" "b" (next ());
  Alcotest.(check string) "third" "c" (next ());
  Alcotest.(check bool) "drained" true (pop q = None)


let test_tie_break_fifo () =
  let q = Sim.Event_queue.create ~dummy:(-1) () in
  for i = 0 to 9 do
    ignore (add q ~time:5. i)
  done;
  for i = 0 to 9 do
    match pop q with
    | Some (_, v) -> Alcotest.(check int) "insertion order" i v
    | None -> Alcotest.fail "queue empty"
  done

let test_cancel () =
  let q = Sim.Event_queue.create ~dummy:"" () in
  let id1 = add q ~time:1. "a" in
  let _id2 = add q ~time:2. "b" in
  Alcotest.(check bool) "cancel pending" true (Sim.Event_queue.cancel q id1);
  Alcotest.(check bool) "double cancel fails" false (Sim.Event_queue.cancel q id1);
  (match pop q with
  | Some (_, v) -> Alcotest.(check string) "skips cancelled" "b" v
  | None -> Alcotest.fail "queue empty");
  Alcotest.(check bool) "cancel after fire fails" false
    (Sim.Event_queue.cancel q id1)

let test_length_tracks_live () =
  let q = Sim.Event_queue.create ~dummy:() () in
  let id = add q ~time:1. () in
  ignore (add q ~time:2. ());
  Alcotest.(check int) "two live" 2 (Sim.Event_queue.length q);
  ignore (Sim.Event_queue.cancel q id : bool);
  Alcotest.(check int) "one live after cancel" 1 (Sim.Event_queue.length q);
  ignore (pop q);
  Alcotest.(check int) "zero after pop" 0 (Sim.Event_queue.length q);
  Alcotest.(check bool) "is_empty" true (Sim.Event_queue.is_empty q)

let test_peek_time_skips_cancelled () =
  let q = Sim.Event_queue.create ~dummy:() () in
  let id = add q ~time:1. () in
  ignore (add q ~time:5. ());
  ignore (Sim.Event_queue.cancel q id : bool);
  Alcotest.(check bool) "nothing due before 5" true (none_before q 5.);
  Alcotest.(check (option (pair (float 1e-9) unit))) "pops 5" (Some (5., ()))
    (pop q)

let prop_pop_sorted =
  QCheck2.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0. 1000.))
    (fun times ->
      let q = Sim.Event_queue.create ~dummy:() () in
      List.iter (fun time -> ignore (add q ~time ())) times;
      let rec drain last =
        match pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_cancel_removes =
  QCheck2.Test.make ~name:"cancelled events never pop" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (pair (float_range 0. 100.) bool))
    (fun entries ->
      let q = Sim.Event_queue.create ~dummy:0 () in
      let ids =
        List.map
          (fun (time, cancel) -> (add q ~time ~-1, cancel))
          entries
      in
      let cancelled =
        List.filter_map
          (fun (id, cancel) ->
            if cancel then begin
              ignore (Sim.Event_queue.cancel q id : bool);
              Some id
            end
            else None)
          ids
      in
      let expected = List.length entries - List.length cancelled in
      let rec count acc =
        match pop q with
        | None -> acc
        | Some _ -> count (acc + 1)
      in
      count 0 = expected)

(* Vacated slots (popped, cancelled, or left behind by arena growth)
   must not pin payloads: every slot is reset to the queue's dummy, so
   once the caller drops its own reference the payload is collectable.
   The old heap kept entries in slots beyond [size] (and in the old
   array after growth) for the life of the queue — this test fails on
   that implementation. *)
let test_vacated_slots_release_payloads () =
  let q = Sim.Event_queue.create ~capacity:16 ~dummy:"" () in
  let n = 64 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    (* fresh heap-allocated payloads so Weak can track their liveness;
       n > capacity forces arena growth along the way *)
    let payload = String.make 16 (Char.chr (65 + (i mod 26))) in
    Weak.set w i (Some payload);
    let id = add q ~time:(float_of_int i) payload in
    if i mod 3 = 0 then ignore (Sim.Event_queue.cancel q id : bool)
  done;
  let rec drain () =
    match pop q with Some _ -> drain () | None -> ()
  in
  drain ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr alive
  done;
  Alcotest.(check int) "payloads retained after pop/cancel" 0 !alive

let test_pop_run_clock_and_stops () =
  let q = Sim.Event_queue.create ~dummy:0 () in
  let clock = [| 0. |] in
  let cell = [| 1. |] in
  ignore (Sim.Event_queue.add_cell q ~cell ~aux:7 1);
  cell.(0) <- 2.;
  ignore (Sim.Event_queue.add_cell q ~cell ~aux:0 2);
  ignore (add q ~time:3. 3);
  let seen = ref [] in
  let k v aux = seen := (v, aux, clock.(0)) :: !seen in
  let stop = Sim.Event_queue.pop_run q ~clock ~until:2.5 ~max_events:10 ~k in
  Alcotest.(check bool) "deferred past until" true
    (stop = Sim.Event_queue.Deferred);
  Alcotest.(check (list (triple int int (float 1e-9))))
    "events, aux words and clock writes"
    [ (1, 7, 1.); (2, 0, 2.) ]
    (List.rev !seen);
  seen := [];
  let stop = Sim.Event_queue.pop_run q ~clock ~until:10. ~max_events:10 ~k in
  Alcotest.(check bool) "drained" true (stop = Sim.Event_queue.Drained);
  Alcotest.(check (list (triple int int (float 1e-9))))
    "remaining event" [ (3, 0, 3.) ] (List.rev !seen)

(* A number taken with [reserve_seq] orders its event as if it had been
   added then: it pops before a later add at the same time. A number
   never handed out is refused. *)
let test_reserved_number_keeps_its_place () =
  let q = Sim.Event_queue.create ~dummy:"" () in
  let seq = Sim.Event_queue.reserve_seq q in
  ignore (add q ~time:1. "added");
  ignore (Sim.Event_queue.add_reserved q ~cell:[| 1. |] ~seq ~aux:0 "reserved");
  let pop () =
    match pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "queue empty"
  in
  Alcotest.(check string) "reserved first" "reserved" (pop ());
  Alcotest.(check string) "then the later add" "added" (pop ());
  Alcotest.check_raises "unreserved number"
    (Invalid_argument "Event_queue.add_reserved: seq 2 not reserved")
    (fun () ->
      ignore (Sim.Event_queue.add_reserved q ~cell:[| 1. |] ~seq:2 ~aux:0 "x"))

(* Model-based differential test: the arena-backed heap against a
   sorted association list over random interleavings of adds, reserved
   numbers added later, cancels, pops and peeks. The reference pops in
   exact (time, seq) order, where seq is the insertion number or the
   number reserved for the event, so this also pins the tie-break order.
   Times mix the near future, seconds, far-future values and ~1e14, and
   a few fixed values force ties between fresh and reserved numbers.
   Cancels hit the root, any live event and the newest one, which sits
   near the end of the heap, as well as stale and fired handles; a
   small arena exercises growth and generation reuse of slots. *)
let prop_matches_reference_model =
  let time_gen =
    QCheck2.Gen.(
      oneof
        [
          float_range 0. 0.01;
          float_range 0. 2.;
          float_range 0. 1e6;
          return 1.5e14;
          oneofl [ 0.25; 0.5 ];
        ])
  in
  let op_gen =
    QCheck2.Gen.(
      frequency
        [
          (4, map (fun t -> `Add t) time_gen);
          (1, return `Reserve);
          (2, map2 (fun i t -> `Add_reserved (i, t)) (int_range 0 10_000) time_gen);
          (2, map (fun i -> `Cancel i) (int_range 0 10_000));
          (1, return `Cancel_root);
          (1, map (fun i -> `Cancel_live i) (int_range 0 10_000));
          (1, return `Cancel_newest);
          (2, return `Pop);
          (1, return `Peek);
        ])
  in
  QCheck2.Test.make ~name:"event queue matches sorted-list reference model"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 200) op_gen)
    (fun ops ->
      let q = Sim.Event_queue.create ~capacity:16 ~dummy:(-1) () in
      (* reference: (time, seq, key) sorted by (time, seq) *)
      let model = ref [] in
      let insert entry =
        let time, seq, _ = entry in
        let rec go = function
          | [] -> [ entry ]
          | ((t, s, _) as hd) :: tl ->
              if t < time || (t = time && s < seq) then hd :: go tl
              else entry :: hd :: tl
        in
        model := go !model
      in
      let handles = ref [] in  (* (key, id), newest first *)
      let reserved = ref [] in  (* numbers taken and not yet used *)
      let next_seq = ref 0 in
      let next_key = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let add_model time seq id =
        let key = !next_key in
        incr next_key;
        insert (time, seq, key);
        handles := (key, id) :: !handles
      in
      let live key = List.exists (fun (_, _, k) -> k = key) !model in
      let cancel key =
        let id = List.assoc key !handles in
        check (Sim.Event_queue.cancel q id = live key);
        (* a second cancel of the same handle must refuse *)
        check (not (Sim.Event_queue.cancel q id));
        check (not (Sim.Event_queue.is_pending q id));
        model := List.filter (fun (_, _, k) -> k <> key) !model
      in
      let cancel_rank i =
        match !model with
        | [] -> ()
        | m ->
            let _, _, key = List.nth m (i mod List.length m) in
            cancel key
      in
      List.iter
        (fun op ->
          if !ok then begin
            (match op with
            | `Add time ->
                let id = add q ~time !next_key in
                add_model time !next_seq id;
                incr next_seq
            | `Reserve ->
                let seq = Sim.Event_queue.reserve_seq q in
                check (seq = !next_seq);
                incr next_seq;
                reserved := seq :: !reserved
            | `Add_reserved (i, time) -> (
                match !reserved with
                | [] -> ()
                | r ->
                    let seq = List.nth r (i mod List.length r) in
                    reserved := List.filter (fun s -> s <> seq) r;
                    let id =
                      Sim.Event_queue.add_reserved q ~cell:[| time |] ~seq
                        ~aux:0 !next_key
                    in
                    add_model time seq id)
            | `Cancel i ->
                let n = List.length !handles in
                if n > 0 then cancel (fst (List.nth !handles (i mod n)))
            | `Cancel_root -> cancel_rank 0
            | `Cancel_live i -> cancel_rank i
            | `Cancel_newest -> (
                match List.find_opt (fun (k, _) -> live k) !handles with
                | Some (key, _) -> cancel key
                | None -> ())
            | `Pop -> (
                match (pop q, !model) with
                | None, [] -> ()
                | Some (t, k), (mt, ms, mk) :: rest ->
                    check (t = mt && k = mk);
                    check (Sim.Event_queue.last_seq q = ms);
                    model := rest
                | _ -> check false)
            | `Peek -> (
                match !model with
                | [] -> check (Sim.Event_queue.is_empty q)
                | (mt, _, _) :: _ -> check (none_before q mt)));
            check (Sim.Event_queue.next_seq q = !next_seq);
            check (Sim.Event_queue.length q = List.length !model)
          end)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "pop order" `Quick test_pop_order;
    Alcotest.test_case "FIFO tie-break" `Quick test_tie_break_fifo;
    Alcotest.test_case "cancel semantics" `Quick test_cancel;
    Alcotest.test_case "length tracks live" `Quick test_length_tracks_live;
    Alcotest.test_case "peek skips cancelled" `Quick test_peek_time_skips_cancelled;
    Alcotest.test_case "vacated slots release payloads" `Quick
      test_vacated_slots_release_payloads;
    Alcotest.test_case "pop_run clock writes and stop reasons" `Quick
      test_pop_run_clock_and_stops;
    Alcotest.test_case "reserved number keeps its place" `Quick
      test_reserved_number_keeps_its_place;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_cancel_removes;
    QCheck_alcotest.to_alcotest prop_matches_reference_model;
  ]
