(* Network stack tests: message fragmentation, resequencing and
   multi-hop store-and-forward delivery. *)

(* --- Messages --- *)

let pp_frag ppf f = Format.pp_print_string ppf (Workload.Messages.encode f)

let frag = Alcotest.testable pp_frag (fun a b ->
    a.Workload.Messages.msg_id = b.Workload.Messages.msg_id
    && a.Workload.Messages.src = b.Workload.Messages.src
    && a.Workload.Messages.dst = b.Workload.Messages.dst
    && a.Workload.Messages.index = b.Workload.Messages.index
    && a.Workload.Messages.count = b.Workload.Messages.count
    && String.equal a.Workload.Messages.body b.Workload.Messages.body)

let test_fragment_sizes () =
  let frags =
    Workload.Messages.fragment_message ~msg_id:1 ~src:0 ~dst:2 ~mtu:10
      "0123456789abcdefghij_tail"
  in
  Alcotest.(check int) "three fragments" 3 (List.length frags);
  List.iteri
    (fun i f ->
      Alcotest.(check int) "index" i f.Workload.Messages.index;
      Alcotest.(check int) "count" 3 f.Workload.Messages.count)
    frags;
  Alcotest.(check string) "tail content" "_tail"
    (List.nth frags 2).Workload.Messages.body

let test_fragment_empty_message () =
  match Workload.Messages.fragment_message ~msg_id:0 ~src:0 ~dst:1 ~mtu:10 "" with
  | [ f ] ->
      Alcotest.(check string) "empty body" "" f.Workload.Messages.body;
      Alcotest.(check int) "count 1" 1 f.Workload.Messages.count
  | _ -> Alcotest.fail "expected exactly one fragment"

let test_encode_decode () =
  let f =
    {
      Workload.Messages.msg_id = 7;
      src = 1;
      dst = 5;
      index = 2;
      count = 4;
      body = "body|with|pipes";
    }
  in
  match Workload.Messages.decode (Workload.Messages.encode f) with
  | Ok f' -> Alcotest.check frag "roundtrip" f f'
  | Error e -> Alcotest.failf "decode: %s" e

let test_decode_garbage () =
  (match Workload.Messages.decode "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (match Workload.Messages.decode "M1|2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated accepted");
  match Workload.Messages.decode "M1|2|3|9|4|oops" with
  | Error _ -> () (* index >= count *)
  | Ok _ -> Alcotest.fail "inconsistent numbering accepted"

let prop_fragment_roundtrip =
  QCheck2.Test.make ~name:"fragment/encode/decode/reassemble = identity"
    ~count:200
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 0 500)) (int_range 1 64))
    (fun (body, mtu) ->
      let frags = Workload.Messages.fragment_message ~msg_id:3 ~src:0 ~dst:1 ~mtu body in
      let decoded =
        List.map
          (fun f ->
            match Workload.Messages.decode (Workload.Messages.encode f) with
            | Ok f' -> f'
            | Error e -> failwith e)
          frags
      in
      let reassembled =
        String.concat "" (List.map (fun f -> f.Workload.Messages.body) decoded)
      in
      String.equal reassembled body)

(* --- Resequencer --- *)

let test_resequencer_out_of_order () =
  let r = Netstack.Resequencer.create () in
  let got = ref [] in
  Netstack.Resequencer.set_on_message r (fun ~src ~msg_id ~body ->
      got := (src, msg_id, body) :: !got);
  let frags = Workload.Messages.fragment_message ~msg_id:9 ~src:4 ~dst:0 ~mtu:3 "abcdefgh" in
  List.iter (Netstack.Resequencer.push r) (List.rev frags);
  Alcotest.(check (list (triple int int string))) "one complete message"
    [ (4, 9, "abcdefgh") ] !got;
  Alcotest.(check int) "nothing pending" 0 (Netstack.Resequencer.pending_messages r)

let test_resequencer_dedup () =
  let r = Netstack.Resequencer.create () in
  let count = ref 0 in
  Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id:_ ~body:_ -> incr count);
  let frags = Workload.Messages.fragment_message ~msg_id:1 ~src:0 ~dst:0 ~mtu:4 "0123456789" in
  List.iter (Netstack.Resequencer.push r) frags;
  List.iter (Netstack.Resequencer.push r) frags;
  Alcotest.(check int) "delivered once" 1 !count;
  Alcotest.(check int) "duplicates counted" 3 (Netstack.Resequencer.duplicates_dropped r);
  Alcotest.(check int) "completed" 1 (Netstack.Resequencer.completed r)

let test_resequencer_interleaved_messages () =
  let r = Netstack.Resequencer.create () in
  let got = ref [] in
  Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id ~body -> got := (msg_id, body) :: !got);
  let f1 = Workload.Messages.fragment_message ~msg_id:1 ~src:0 ~dst:0 ~mtu:2 "aabb" in
  let f2 = Workload.Messages.fragment_message ~msg_id:2 ~src:0 ~dst:0 ~mtu:2 "ccdd" in
  (match (f1, f2) with
  | [ a1; a2 ], [ b1; b2 ] ->
      Netstack.Resequencer.push r a1;
      Netstack.Resequencer.push r b2;
      Alcotest.(check int) "two pending" 2 (Netstack.Resequencer.pending_messages r);
      Alcotest.(check int) "two fragments buffered" 2
        (Netstack.Resequencer.pending_fragments r);
      Netstack.Resequencer.push r b1;
      Netstack.Resequencer.push r a2
  | _ -> Alcotest.fail "bad fragmentation");
  Alcotest.(check (list (pair int string))) "both complete (msg2 first)"
    [ (2, "ccdd"); (1, "aabb") ] (List.rev !got)

let prop_resequencer_any_order_any_dups =
  QCheck2.Test.make ~name:"resequencer: any arrival order and duplication"
    ~count:200
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 1 80)) (int_range 1 9))
    (fun (body, mtu) ->
      let r = Netstack.Resequencer.create () in
      let out = ref None in
      Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id:_ ~body ->
          out := Some body);
      let frags = Workload.Messages.fragment_message ~msg_id:5 ~src:1 ~dst:2 ~mtu body in
      (* push twice in reverse, once forward *)
      List.iter (Netstack.Resequencer.push r) (List.rev frags);
      List.iter (Netstack.Resequencer.push r) frags;
      !out = Some body)

(* A message id that already completed must never be delivered again:
   after an enforced recovery a whole message's fragments can arrive a
   second time (the paper's bounded-duplication re-routing case). *)
let test_resequencer_replay_after_completion () =
  let r = Netstack.Resequencer.create () in
  let count = ref 0 in
  Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id:_ ~body:_ ->
      incr count);
  let frags =
    Workload.Messages.fragment_message ~msg_id:3 ~src:2 ~dst:0 ~mtu:4
      "0123456789"
  in
  List.iter (Netstack.Resequencer.push r) frags;
  Alcotest.(check int) "first pass delivers" 1 !count;
  (* full replay of the completed message *)
  List.iter (Netstack.Resequencer.push r) frags;
  Alcotest.(check int) "replay suppressed" 1 !count;
  Alcotest.(check int) "all replayed fragments counted as duplicates"
    (List.length frags)
    (Netstack.Resequencer.duplicates_dropped r);
  Alcotest.(check int) "no resurrected partial state" 0
    (Netstack.Resequencer.pending_messages r)

(* A gap that is never filled must never release the message: the
   destination buffers forever rather than deliver a hole. The network
   layer above decides when to give up (after the resolving period it
   re-routes with a definite verdict); the resequencer itself stays
   safe. *)
let test_resequencer_gap_never_releases () =
  let r = Netstack.Resequencer.create () in
  let count = ref 0 in
  Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id:_ ~body:_ ->
      incr count);
  match
    Workload.Messages.fragment_message ~msg_id:8 ~src:0 ~dst:1 ~mtu:2
      "aabbcc"
  with
  | [ f0; _f1; f2 ] ->
      Netstack.Resequencer.push r f0;
      Netstack.Resequencer.push r f2;
      Netstack.Resequencer.push r f2;  (* duplicate of a buffered fragment *)
      Alcotest.(check int) "nothing delivered" 0 !count;
      Alcotest.(check int) "one message pending" 1
        (Netstack.Resequencer.pending_messages r);
      Alcotest.(check int) "two distinct fragments buffered" 2
        (Netstack.Resequencer.pending_fragments r);
      Alcotest.(check int) "duplicate of buffered fragment dropped" 1
        (Netstack.Resequencer.duplicates_dropped r)
  | _ -> Alcotest.fail "bad fragmentation"

(* Large msg_id values (wraparound of an upstream 16-bit counter would
   reuse ids — the resequencer treats ids as opaque, so reuse after
   completion deduplicates; distinct large ids stay distinct) *)
let test_resequencer_id_reuse_after_wraparound () =
  let r = Netstack.Resequencer.create () in
  let got = ref [] in
  Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id ~body ->
      got := (msg_id, body) :: !got);
  let push_msg ~msg_id body =
    List.iter (Netstack.Resequencer.push r)
      (Workload.Messages.fragment_message ~msg_id ~src:1 ~dst:0 ~mtu:8 body)
  in
  push_msg ~msg_id:65_535 "before-wrap";
  push_msg ~msg_id:0 "after-wrap";
  (* a wrapped counter reusing id 65535 for NEW content is silently
     deduplicated — the documented cost of id reuse *)
  push_msg ~msg_id:65_535 "reused-id";
  Alcotest.(check (list (pair int string))) "reused id suppressed"
    [ (65_535, "before-wrap"); (0, "after-wrap") ]
    (List.rev !got)

(* Post-resequencer ordering invariant: per source, completed messages
   come out in increasing msg_id order when the source emits them in
   order, however fragments interleave. *)

(* Fisher-Yates on the simulator's generator. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let prop_resequencer_stream_order =
  QCheck2.Test.make ~name:"completion order equals submission order"
    ~count:100
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      (* fragments of each message arrive in an arbitrary permutation
         (what a LAMS link with renumbered retransmissions produces),
         but messages themselves finish transit one after another; the
         resequencer must then complete them in strictly increasing
         msg_id order, with no duplicate *)
      let rng = Sim.Rng.create ~seed in
      let r = Netstack.Resequencer.create () in
      let last = ref min_int and ordered = ref true in
      Netstack.Resequencer.set_on_message r (fun ~src:_ ~msg_id ~body:_ ->
          if msg_id <= !last then ordered := false;
          last := msg_id);
      List.iter
        (fun id ->
          let frags =
            Array.of_list
              (Workload.Messages.fragment_message ~msg_id:id ~src:0 ~dst:1
                 ~mtu:3 (Printf.sprintf "message-%04d" id))
          in
          shuffle rng frags;
          Array.iter (Netstack.Resequencer.push r) frags)
        (List.init 20 Fun.id);
      !ordered && Netstack.Resequencer.completed r = 20)

(* --- Network --- *)

let perfect_lams_link engine ~seed =
  let duplex =
    Channel.Duplex.create_static engine
      ~rng:(Sim.Rng.create ~seed)
      ~distance_m:1_000_000. ~data_rate_bps:100e6
      ~iframe_error:(Channel.Error_model.uniform ~ber:0. ())
      ~cframe_error:Channel.Error_model.perfect
  in
  duplex

let lossy_lams_link engine ~seed =
  Channel.Duplex.create_static engine
    ~rng:(Sim.Rng.create ~seed)
    ~distance_m:1_000_000. ~data_rate_bps:100e6
    ~iframe_error:(Channel.Error_model.uniform ~ber:5e-5 ())
    ~cframe_error:(Channel.Error_model.uniform ~ber:1e-7 ())

let build_chain engine ~nodes ~make_link =
  let params = { Lams_dlc.Params.default with Lams_dlc.Params.w_cp = 1e-3 } in
  let net = Netstack.Network.create engine ~nodes in
  for a = 0 to nodes - 2 do
    let b = a + 1 in
    let d1 = make_link engine ~seed:(100 + a) in
    let d2 = make_link engine ~seed:(200 + a) in
    let s_ab = Lams_dlc.Session.create engine ~params ~duplex:d1 in
    let s_ba = Lams_dlc.Session.create engine ~params ~duplex:d2 in
    Netstack.Network.add_link net ~a ~b
      ~ab:(Lams_dlc.Session.as_dlc s_ab)
      ~ba:(Lams_dlc.Session.as_dlc s_ba)
  done;
  Netstack.Network.compute_routes net;
  net

let test_network_single_hop () =
  let engine = Sim.Engine.create () in
  let net = build_chain engine ~nodes:2 ~make_link:perfect_lams_link in
  let got = ref [] in
  Netstack.Network.set_on_message net (fun ~dst ~src ~msg_id:_ ~body ->
      got := (dst, src, body) :: !got);
  ignore (Netstack.Network.send_message net ~src:0 ~dst:1 ~mtu:100 "hello across" : int);
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check (list (triple int int string))) "delivered" [ (1, 0, "hello across") ] !got

let test_network_multi_hop_chain () =
  let engine = Sim.Engine.create () in
  let net = build_chain engine ~nodes:4 ~make_link:perfect_lams_link in
  Alcotest.(check bool) "0 reaches 3" true (Netstack.Network.reachable net ~src:0 ~dst:3);
  let got = ref [] in
  Netstack.Network.set_on_message net (fun ~dst:_ ~src:_ ~msg_id ~body ->
      got := (msg_id, body) :: !got);
  let body = String.concat "-" (List.init 50 string_of_int) in
  let id1 = Netstack.Network.send_message net ~src:0 ~dst:3 ~mtu:16 body in
  let id2 = Netstack.Network.send_message net ~src:3 ~dst:0 ~mtu:16 "reverse" in
  Sim.Engine.run engine ~until:2.;
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  Alcotest.(check bool) "forward body intact" true (List.mem (id1, body) !got);
  Alcotest.(check bool) "reverse body intact" true (List.mem (id2, "reverse") !got)

let test_network_lossy_chain () =
  let engine = Sim.Engine.create () in
  let net = build_chain engine ~nodes:3 ~make_link:lossy_lams_link in
  let delivered = ref 0 in
  Netstack.Network.set_on_message net (fun ~dst:_ ~src:_ ~msg_id:_ ~body:_ ->
      incr delivered);
  let big = String.init 5000 (fun i -> Char.chr (32 + (i mod 90))) in
  for _ = 1 to 5 do
    ignore (Netstack.Network.send_message net ~src:0 ~dst:2 ~mtu:512 big : int)
  done;
  Sim.Engine.run engine ~until:30.;
  Alcotest.(check int) "all messages survive a lossy subnet" 5 !delivered;
  Alcotest.(check int) "nothing left in transit" 0
    (Netstack.Network.fragments_in_transit net)

let test_network_no_route () =
  let engine = Sim.Engine.create () in
  let net = Netstack.Network.create engine ~nodes:3 in
  Netstack.Network.compute_routes net;
  Alcotest.(check bool) "unreachable" false (Netstack.Network.reachable net ~src:0 ~dst:2);
  Alcotest.check_raises "send fails"
    (Invalid_argument "Network.send_message: no route 0->2") (fun () ->
      ignore (Netstack.Network.send_message net ~src:0 ~dst:2 ~mtu:10 "x" : int))

let test_network_local_delivery () =
  let engine = Sim.Engine.create () in
  let net = Netstack.Network.create engine ~nodes:1 in
  Netstack.Network.compute_routes net;
  let got = ref [] in
  Netstack.Network.set_on_message net (fun ~dst:_ ~src:_ ~msg_id:_ ~body ->
      got := body :: !got);
  ignore (Netstack.Network.send_message net ~src:0 ~dst:0 ~mtu:4 "loopback" : int);
  Alcotest.(check (list string)) "local" [ "loopback" ] !got

let suite =
  [
    Alcotest.test_case "fragment sizes" `Quick test_fragment_sizes;
    Alcotest.test_case "fragment empty" `Quick test_fragment_empty_message;
    Alcotest.test_case "encode/decode" `Quick test_encode_decode;
    Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    QCheck_alcotest.to_alcotest prop_fragment_roundtrip;
    Alcotest.test_case "resequencer out of order" `Quick test_resequencer_out_of_order;
    Alcotest.test_case "resequencer dedup" `Quick test_resequencer_dedup;
    Alcotest.test_case "resequencer interleaved" `Quick test_resequencer_interleaved_messages;
    QCheck_alcotest.to_alcotest prop_resequencer_any_order_any_dups;
    Alcotest.test_case "resequencer replay after completion" `Quick
      test_resequencer_replay_after_completion;
    Alcotest.test_case "resequencer gap never releases" `Quick
      test_resequencer_gap_never_releases;
    Alcotest.test_case "resequencer id reuse after wraparound" `Quick
      test_resequencer_id_reuse_after_wraparound;
    QCheck_alcotest.to_alcotest prop_resequencer_stream_order;
    Alcotest.test_case "network single hop" `Quick test_network_single_hop;
    Alcotest.test_case "network multi hop" `Quick test_network_multi_hop_chain;
    Alcotest.test_case "network lossy chain" `Quick test_network_lossy_chain;
    Alcotest.test_case "network no route" `Quick test_network_no_route;
    Alcotest.test_case "network local delivery" `Quick test_network_local_delivery;
  ]
