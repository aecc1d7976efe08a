(* Tests for cyclic sequence-number arithmetic. *)

let sp8 = Frame.Seqnum.space ~bits:3 (* modulus 8: small enough to test wrap *)

let test_space_params () =
  Alcotest.(check int) "wraps at 8" 0 (Frame.Seqnum.add sp8 7 1);
  Alcotest.(check int) "distance mod 8" 7 (Frame.Seqnum.sub sp8 0 1)

let test_bad_space () =
  Alcotest.check_raises "bits 0" (Invalid_argument "Seqnum.space: bits must be in 1..30")
    (fun () -> ignore (Frame.Seqnum.space ~bits:0));
  Alcotest.check_raises "bits 31" (Invalid_argument "Seqnum.space: bits must be in 1..30")
    (fun () -> ignore (Frame.Seqnum.space ~bits:31))

let test_succ_wraps () =
  Alcotest.(check int) "succ 6" 7 (Frame.Seqnum.succ sp8 6);
  Alcotest.(check int) "succ 7 wraps" 0 (Frame.Seqnum.succ sp8 7)

let test_add_sub () =
  Alcotest.(check int) "add wrap" 1 (Frame.Seqnum.add sp8 6 3);
  Alcotest.(check int) "sub forward" 3 (Frame.Seqnum.sub sp8 1 6);
  Alcotest.(check int) "sub zero" 0 (Frame.Seqnum.sub sp8 5 5)

let test_in_window () =
  (* window [6, 6+4) = {6, 7, 0, 1} *)
  Alcotest.(check bool) "6 in" true (Frame.Seqnum.in_window sp8 ~lo:6 ~size:4 6);
  Alcotest.(check bool) "0 in" true (Frame.Seqnum.in_window sp8 ~lo:6 ~size:4 0);
  Alcotest.(check bool) "1 in" true (Frame.Seqnum.in_window sp8 ~lo:6 ~size:4 1);
  Alcotest.(check bool) "2 out" false (Frame.Seqnum.in_window sp8 ~lo:6 ~size:4 2);
  Alcotest.(check bool) "5 out" false (Frame.Seqnum.in_window sp8 ~lo:6 ~size:4 5);
  Alcotest.(check bool) "empty window" false
    (Frame.Seqnum.in_window sp8 ~lo:3 ~size:0 3)

(* Order within a window is the distance from its base. *)
let test_compare_in_window () =
  let c a b = compare (Frame.Seqnum.sub sp8 a 6) (Frame.Seqnum.sub sp8 b 6) in
  Alcotest.(check bool) "7 < 0 relative to 6" true (c 7 0 < 0);
  Alcotest.(check bool) "0 < 5 relative to 6" true (c 0 5 < 0);
  Alcotest.(check bool) "equal" true (c 2 2 = 0)

(* The arithmetic only ever yields numbers of the space. *)
let test_validate () =
  for a = 0 to 7 do
    for b = 0 to 7 do
      List.iter
        (fun x -> if x < 0 || x >= 8 then Alcotest.failf "%d out of the space" x)
        Frame.Seqnum.[ add sp8 a b; sub sp8 a b; succ sp8 a ]
    done
  done

let gen_seq = QCheck2.Gen.int_range 0 7

let prop_add_sub_inverse =
  QCheck2.Test.make ~name:"sub (add b d) b = d" ~count:500
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (b, d) -> Frame.Seqnum.sub sp8 (Frame.Seqnum.add sp8 b d) b = d)

let prop_window_size_counts =
  QCheck2.Test.make ~name:"window of size k holds exactly k members" ~count:200
    QCheck2.Gen.(pair gen_seq (int_range 0 8))
    (fun (lo, size) ->
      let members = ref 0 in
      for x = 0 to 7 do
        if Frame.Seqnum.in_window sp8 ~lo ~size x then incr members
      done;
      !members = size)

let prop_succ_iterates_all =
  QCheck2.Test.make ~name:"8 succs return to start covering all values" ~count:100
    gen_seq
    (fun start ->
      let seen = Hashtbl.create 8 in
      let rec go x n =
        if n = 8 then x = start
        else begin
          if Hashtbl.mem seen x then false
          else begin
            Hashtbl.add seen x ();
            go (Frame.Seqnum.succ sp8 x) (n + 1)
          end
        end
      in
      go start 0)

let suite =
  [
    Alcotest.test_case "space params" `Quick test_space_params;
    Alcotest.test_case "bad space" `Quick test_bad_space;
    Alcotest.test_case "succ wraps" `Quick test_succ_wraps;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "in_window" `Quick test_in_window;
    Alcotest.test_case "compare_in_window" `Quick test_compare_in_window;
    Alcotest.test_case "validate" `Quick test_validate;
    QCheck_alcotest.to_alcotest prop_add_sub_inverse;
    QCheck_alcotest.to_alcotest prop_window_size_counts;
    QCheck_alcotest.to_alcotest prop_succ_iterates_all;
  ]
