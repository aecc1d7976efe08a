(* The matrix-quick workload: [Runner.run ~jobs:2 ~replicates:1] over
   [Experiments.All.matrix ~quick:true Experiments.All.all], the work of
   [experiments run --all --quick --jobs 2], repeated for a fixed number
   of sweeps with the workload seed as [root_seed].

   Each [Runner.point.run] is wrapped to record its start, end, domain,
   minor words (read in its own domain) and the [delivered] count it
   returns, into slots preallocated per task. The wrapper is all the
   untraced run adds; the traced run reads the same slots per sweep for
   the runner and experiments layers. *)

let jobs = 2

type slots = {
  experiment : string array;  (** experiment id of each task *)
  start_ns : int array;
  stop_ns : int array;  (** 0 until the task returns *)
  domain : int array;
  words : float array;
  frames : int array;
  error : string array;  (** "" unless the task raised *)
}

let create_slots n =
  {
    experiment = Array.make n "";
    start_ns = Array.make n 0;
    stop_ns = Array.make n 0;
    domain = Array.make n 0;
    words = Array.make n 0.;
    frames = Array.make n 0;
    error = Array.make n "";
  }

let wrap_point sl i (p : Runner.point) =
  let run ~seed =
    let t0 = Clock.now_ns () in
    let w0 = Gc.minor_words () in
    match p.run ~seed with
    | metrics ->
        let w1 = Gc.minor_words () in
        let t1 = Clock.now_ns () in
        sl.start_ns.(i) <- t0;
        sl.stop_ns.(i) <- t1;
        sl.words.(i) <- w1 -. w0;
        sl.domain.(i) <- (Domain.self () :> int);
        sl.frames.(i) <-
          (match List.assoc_opt "delivered" metrics with
          | Some d -> int_of_float d
          | None -> 0);
        metrics
    | exception e ->
        sl.start_ns.(i) <- t0;
        sl.error.(i) <- Printexc.to_string e;
        raise e
  in
  { p with run }

(* Build the matrix and its wrapped copy; this is the set-up work. *)
let build () =
  let matrix = Experiments.All.matrix ~quick:true Experiments.All.all in
  let n = Runner.task_count ~replicates:1 matrix in
  let sl = create_slots n in
  let next = ref 0 in
  let wrapped =
    List.map
      (fun (e : Runner.experiment) ->
        let points =
          List.map
            (fun p ->
              let i = !next in
              incr next;
              sl.experiment.(i) <- e.id;
              wrap_point sl i p)
            e.points
        in
        { e with points })
      matrix
  in
  (wrapped, sl)

type sweep = {
  wall_ns : int;
  digest : string;  (** MD5 of the report JSON without meta; "" on failure *)
  task_ns : float array;
  task_words : float array;
  task_frames : int array;
  task_domain : int array;
  task_causes : string list array;
  promoted_words : float;
  major_collections : int;
}

let report_digest r =
  Bench_report.Matrix_report.to_json ~with_meta:false r
  |> Bench_report.Json.to_string |> Digest.string |> Digest.to_hex

let sweep (matrix, sl) ~seed ~gc =
  let n = Array.length sl.stop_ns in
  Array.fill sl.start_ns 0 n 0;
  Array.fill sl.stop_ns 0 n 0;
  Array.fill sl.words 0 n 0.;
  Array.fill sl.frames 0 n 0;
  Array.fill sl.error 0 n "";
  let q0 = if gc then Some (Gc.quick_stat ()) else None in
  let t0 = Clock.now_ns () in
  let report =
    match Runner.run ~jobs ~root_seed:seed ~replicates:1 matrix with
    | r -> Some r
    | exception _ -> None
  in
  let wall_ns = Clock.now_ns () - t0 in
  let promoted_words, major_collections =
    match q0 with
    | None -> (0., 0)
    | Some q0 ->
        let q1 = Gc.quick_stat () in
        ( q1.Gc.promoted_words -. q0.Gc.promoted_words,
          q1.Gc.major_collections - q0.Gc.major_collections )
  in
  let task_causes =
    Array.init n (fun i ->
        if sl.error.(i) <> "" then [ "exception" ]
        else if sl.stop_ns.(i) = 0 then [ "not-run" ]
        else [])
  in
  Array.iteri
    (fun i e ->
      if e <> "" then Printf.printf "task %d (%s) raised %s\n" i sl.experiment.(i) e)
    sl.error;
  {
    wall_ns;
    digest = (match report with Some r -> report_digest r | None -> "");
    task_ns =
      Array.init n (fun i ->
          if task_causes.(i) = [] then float_of_int (sl.stop_ns.(i) - sl.start_ns.(i))
          else 0.);
    task_words = Array.copy sl.words;
    task_frames = Array.copy sl.frames;
    task_domain = Array.copy sl.domain;
    task_causes;
    promoted_words;
    major_collections;
  }
