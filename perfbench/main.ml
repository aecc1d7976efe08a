(* The benchmark program: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last line is JSON holding every end-to-end metric;
   with --trace 1 it holds every per-layer metric of the traced run. The
   exit code is 1 when an output check fails, 2 on a usage error. See
   README.md. *)

open Perfbench

let () =
  let entry_ns = Clock.now_ns () in
  let workload = ref "" and seed = ref Report.pinned_seed and seconds = ref 25 in
  let trace = ref 0 and record_pinned = ref false and defects = ref false in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (Workloads.names ())
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1, the pinned seed)");
      ("--seconds", Arg.Set_int seconds, "S run length: fixes the number of sweeps");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced run");
      ( "--record-pinned",
        Arg.Set record_pinned,
        " at the pinned seed, write the task digests instead of checking them" );
      ( "--defects",
        Arg.Set defects,
        " run the sessions that reproduce the two known defects, then exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  if !defects then begin
    Bench.defects ~seed:!seed;
    exit 0
  end;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let opts =
    {
      Bench.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      entry_ns;
      record_pinned = !record_pinned;
    }
  in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d sweeps=%d\n" w.name
    !seed !seconds !trace
    (Workloads.sweeps w ~seconds:!seconds);
  print_endline (Report.gc_settings ());
  let outcome =
    match w.kind with
    | Workloads.Session s -> Bench.run_session opts w s
    | Workloads.Matrix -> Bench.run_matrix opts w
  in
  if not (Report.print ~trace:opts.trace outcome) then exit 1
