(* The benchmark's own tests: the traced composition must reproduce the
   untraced run bit for bit, and the names it prints must be the ones
   BENCHMARK.json declares. *)

open Perfbench
module Scenario = Experiments.Scenario

(* --- wrapped channel models draw the bare model's stream ----------------- *)

let positions_of p =
  List.init (Channel.Model.Positions.length p) (Channel.Model.Positions.get p)

(* One script of calls through every wrapped closure, copies included. *)
let exercise (m : Channel.Model.t) ~seed =
  let rng = Sim.Rng.create ~seed in
  let out = Buffer.create 256 in
  let fate f =
    Buffer.add_string out
      (match f with
      | Channel.Model.Clean -> "c"
      | Channel.Model.Corrupt { header } -> if header then "h" else "p"
      | Channel.Model.Lost -> "l")
  in
  let dst = Array.make 16 Channel.Model.Clean in
  let pos = Channel.Model.Positions.create () in
  let step (m : Channel.Model.t) =
    for _ = 1 to 200 do
      fate (Channel.Model.fate m rng ~header_bits:64 ~payload_bits:8192)
    done;
    Channel.Model.advance m rng ~bits:300_000;
    Channel.Model.fates_into m rng ~header_bits:64 ~payload_bits:8192 dst ~n:16;
    Array.iter fate dst;
    Channel.Model.Positions.clear pos;
    Channel.Model.error_positions_into m rng ~bits:4_000_000 pos;
    List.iter (fun p -> Buffer.add_string out (string_of_int p ^ ",")) (positions_of pos)
  in
  step m;
  let copy = Channel.Model.copy m in
  step copy;
  step m;
  Buffer.contents out

let test_wrapped_models () =
  let models =
    [
      ("uniform", fun () -> Channel.Error_model.uniform ~ber:1e-4 ());
      ( "gilbert-elliott",
        fun () ->
          let b = Workloads.storm in
          Channel.Error_model.gilbert_elliott ~ber_good:b.ber_good ~ber_bad:b.ber_bad
            ~mean_burst_bits:b.mean_burst_bits ~mean_gap_bits:b.mean_gap_bits () );
    ]
  in
  List.iter
    (fun (name, make) ->
      let sp = Spans.create () in
      let bare = exercise (make ()) ~seed:7 in
      let traced = exercise (Sessions.wrap_model sp (make ())) ~seed:7 in
      Alcotest.(check string) (name ^ ": same draws") bare traced;
      Alcotest.(check int) (name ^ ": every fate call traced") 600
        (Spans.calls sp Spans.channel_fate);
      Alcotest.(check bool) (name ^ ": copies stay traced") true
        (Spans.calls sp Spans.channel_other = 6))
    models

(* --- the traced composition reproduces Scenario.run / run_checked -------- *)

let pinned w =
  match Report.load_pinned ~dir:"pinned" w.Workloads.name with
  | Some p -> p
  | None -> Alcotest.failf "no pinned digests for %s" w.name

let test_fidelity (w : Workloads.t) s () =
  let sp = Spans.create () and c = Sessions.counters () in
  let pinned = pinned w in
  for i = 0 to 1 do
    let cfg = Workloads.config s ~seed:(Workloads.task_seed w ~seed:Report.pinned_seed i) in
    let task = { Sessions.cfg; proto = Workloads.protocol s cfg } in
    let untraced, uv = Sessions.run_untraced s ~name:w.name task in
    let traced, tv = Sessions.run_traced sp c s ~name:w.name task in
    let key = string_of_int i in
    Alcotest.(check string)
      (Printf.sprintf "task %d: traced = untraced" i)
      (Sessions.digest untraced) (Sessions.digest traced);
    Alcotest.(check (option string))
      (Printf.sprintf "task %d: pinned digest" i)
      (List.assoc_opt key pinned)
      (Some (Sessions.digest traced));
    Alcotest.(check int) (Printf.sprintf "task %d: same oracle verdict" i) uv tv
  done;
  let self = List.init Spans.n_kinds (Spans.self_ns sp) |> List.fold_left ( + ) 0 in
  Alcotest.(check int) "self times add up to the root spans" (Spans.top_ns sp) self;
  Alcotest.(check bool) "events counted" true (c.events > 0)

(* --- printed names are BENCHMARK.json's ---------------------------------- *)

let declared section =
  let json =
    match
      Bench_report.Json.of_string
        (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let str key m =
    Option.get (Option.bind (Bench_report.Json.member key m) Bench_report.Json.to_str)
  in
  Option.bind (Bench_report.Json.member section json) Bench_report.Json.to_list
  |> Option.get
  |> List.map (fun m -> (str "name" m, if section = "workloads" then "" else str "unit" m))

let test_names () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Report.end_to_end (declared "end_to_end");
  Alcotest.check pairs "per_layer" Report.per_layer (declared "per_layer");
  Alcotest.(check (list string))
    "workloads" (Workloads.names ())
    (List.map fst (declared "workloads"))

let () =
  let fidelity =
    List.filter_map
      (fun (w : Workloads.t) ->
        match w.kind with
        | Workloads.Session s -> Some (Alcotest.test_case w.name `Quick (test_fidelity w s))
        | Workloads.Matrix -> None)
      Workloads.all
  in
  Alcotest.run "perfbench"
    [
      ("wrapped-model", [ Alcotest.test_case "draw-stream identical" `Quick test_wrapped_models ]);
      ("traced-fidelity", fidelity);
      ("declared-names", [ Alcotest.test_case "BENCHMARK.json" `Quick test_names ]);
    ]
