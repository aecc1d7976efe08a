(* Every experiment's text report renders from its matrix run. *)

module M = Bench_report.Matrix_report

let render ~quick (e : Experiments.All.t) m =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  e.report ~quick m ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains text affix = Astring.String.is_infix ~affix text

let banner (e : Experiments.All.t) =
  Printf.sprintf "=== %s:" (String.uppercase_ascii e.id)

let experiment (r : M.t) id =
  List.find (fun (m : M.experiment) -> m.id = id) r.experiments

(* The quick matrix at one replicate, shared by the first two tests. *)
let quick_run =
  lazy
    (Runner.run ~jobs:1 ~replicates:1
       (Experiments.All.matrix ~quick:true Experiments.All.all))

let test_quick_reports () =
  let r = Lazy.force quick_run in
  List.iter
    (fun (e : Experiments.All.t) ->
      let text = render ~quick:true e (experiment r e.id) in
      Alcotest.(check bool) (e.id ^ " prints its banner") true
        (contains text (banner e)))
    Experiments.All.all

(* A full-size matrix without running it: the labels of the full grid,
   each point carrying every metric name the quick points returned. *)
let synthetic (quick : M.t) (e : Experiments.All.t) =
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : M.point) -> List.map fst p.metrics)
         (experiment quick e.id).points)
  in
  let one = { M.count = 1; mean = 1.; stddev = 0.; ci95 = 0.; min = 1.; max = 1. } in
  {
    M.id = e.id;
    name = e.name;
    points =
      List.map
        (fun (p : Runner.point) ->
          { M.label = p.label; metrics = List.map (fun k -> (k, one)) keys })
        (e.points ~quick:false);
  }

(* E14 runs its own full-size sessions and reads no matrix. *)
let test_full_reports () =
  let r = Lazy.force quick_run in
  List.iter
    (fun (e : Experiments.All.t) ->
      if e.id <> "e14" then
        let text = render ~quick:false e (synthetic r e) in
        Alcotest.(check bool) (e.id ^ " prints its banner") true
          (contains text (banner e)))
    Experiments.All.all

let test_missing_point () =
  let r = Lazy.force quick_run in
  let e = Option.get (Experiments.All.find "e1") in
  match render ~quick:false e (experiment r "e1") with
  | _ -> Alcotest.fail "the full E1 grid rendered from the quick matrix"
  | exception Failure msg ->
      Alcotest.(check bool) ("names a missing point: " ^ msg) true
        (contains msg "e1: no point \"ber=3e-06/")

let test_replicated_cells () =
  let e = Option.get (Experiments.All.find "e12") in
  let r =
    Runner.run ~jobs:1 ~replicates:2 (Experiments.All.matrix ~quick:true [ e ])
  in
  let text = render ~quick:true e (experiment r "e12") in
  let row =
    List.find
      (fun l -> String.length l > 3 && String.sub l 0 3 = "64 ")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) ("the span cell carries its CI: " ^ row) true
    (contains row "+-")

(* E11's full grid with the BER 1e-4 point of one protocol stopped
   early in one of two replicates: the cell counts the stopped runs and
   prints the delivered count as a mean, and the N2 note names SR-HDLC
   only when an SR-HDLC run stopped. *)
let test_e11_aborted_cell () =
  let e = Option.get (Experiments.All.find "e11") in
  let full tag =
    let m = synthetic (Lazy.force quick_run) e in
    let half mean =
      { M.count = 2; mean; stddev = 0.; ci95 = 0.; min = 0.; max = 1. }
    in
    let stop (p : M.point) =
      if p.label <> "ber=0.0001/" ^ tag then p
      else
        {
          p with
          metrics =
            List.map
              (fun (k, s) ->
                match k with
                | "completed" -> (k, half 0.5)
                | "delivered" -> (k, half 1650.5)
                | _ -> (k, s))
              p.metrics;
        }
    in
    render ~quick:false e { m with points = List.map stop m.points }
  in
  let n2 = "SR-HDLC stops once a frame's N2 retries are exhausted" in
  List.iter
    (fun tag ->
      let text = full tag in
      Alcotest.(check bool) (tag ^ ": the cell counts the stopped run") true
        (contains text "ABORTED in 1 of 2 runs (mean 1650.5 of 3000 delivered)");
      Alcotest.(check bool) (tag ^ ": N2 note") (tag = "hdlc") (contains text n2))
    [ "lams"; "hdlc" ]

let suite =
  [
    Alcotest.test_case "quick: every report renders from its matrix" `Quick
      test_quick_reports;
    Alcotest.test_case "full: every grid label and metric resolves" `Quick
      test_full_reports;
    Alcotest.test_case "a point missing from the matrix raises" `Quick
      test_missing_point;
    Alcotest.test_case "replicated cells carry their CI" `Quick
      test_replicated_cells;
    Alcotest.test_case "E11 counts the runs that stopped early" `Quick
      test_e11_aborted_cell;
  ]
