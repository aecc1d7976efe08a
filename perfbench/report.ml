(* What a run prints: every metric by name with its unit, the failure
   count by cause, and a last line of JSON for tools to read. *)

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }

(* End-to-end metrics, measured with tracing off. The order is the order
   of BENCHMARK.json's "end_to_end". *)
let end_to_end =
  [
    ("frames_per_s", "frames/s");
    ("sweep_s", "s");
    ("task_ms_p50", "ms");
    ("task_ms_tail", "ms");
    ("minor_words_per_frame", "words");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let experiment_ids = List.init 24 (fun i -> Printf.sprintf "e%d" (i + 1))

(* Per-layer metrics, from the traced run only, in BENCHMARK.json's
   "per_layer" order. A layer a workload never calls reads 0. *)
let per_layer =
  [
    ("sim.events_per_frame", "events/frame");
    ("sim.self_ns_per_event", "ns");
    ("sim.pending_peak", "events");
    ("channel.fate_calls_per_frame", "calls/frame");
    ("channel.fate_ns", "ns");
    ("channel.damaged_frac", "fraction");
    ("channel.link_queue_peak", "frames");
    ("workload.payload_ns", "ns");
    ("workload.payload_words", "words");
    ("workload.payloads_per_frame", "calls/frame");
    ("workload.offer_ns", "ns");
    ("lams_dlc.rx_ns", "ns");
    ("lams_dlc.feedback_ns", "ns");
    ("lams_dlc.feedback_per_frame", "calls/frame");
    ("lams_dlc.retx_per_frame", "frames/frame");
    ("lams_dlc.nak_cp_frac", "fraction");
    ("hdlc.rx_ns", "ns");
    ("hdlc.feedback_ns", "ns");
    ("hdlc.feedback_per_frame", "calls/frame");
    ("hdlc.retx_per_frame", "frames/frame");
    ("dlc.probe_events_per_frame", "events/frame");
    ("trace.recorder_ns_per_event", "ns");
    ("oracle.ns_per_event", "ns");
    ("runner.busy_frac", "fraction");
    ("runner.idle_ms", "ms");
    ("runner.critical_task_ms", "ms");
  ]
  @ List.map (fun id -> (Printf.sprintf "experiments.%s.task_ms" id, "ms")) experiment_ids
  @ [
      ("gc.promoted_words_per_frame", "words");
      ("gc.major_per_task", "count");
      ("tracing.overhead_frac", "fraction");
    ]

type outcome = {
  e2e : metric list;  (** untraced; every name of [end_to_end] *)
  layers : (string * float) list;  (** traced run only; names of [per_layer] *)
  lines : string list;  (** further text: attribution table, checks *)
  attempted : int;
  failed : int;
  causes : (string * int) list;  (** failed checks, counted per cause *)
  problems : string list;  (** output-check mismatches: the run is wrong *)
}

let ratio a b = if b = 0. then 0. else a /. b

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      |> Option.value ~default:0.

let gc_settings () =
  let g = Gc.get () in
  Printf.sprintf
    "gc settings (defaults, untouched): minor_heap_size=%d words space_overhead=%d \
     max_overhead=%d stack_limit=%d custom_major_ratio=%d custom_minor_ratio=%d"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead g.Gc.stack_limit
    g.Gc.custom_major_ratio g.Gc.custom_minor_ratio

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric m =
  Printf.printf "%s %s %s%s\n" m.name (number m.value) m.unit
    (if m.note = "" then "" else " (" ^ m.note ^ ")")

let json ~correct ~attempted ~failed metrics =
  let field (name, value, unit) =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number value) unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Print the whole report; the JSON object is the last line. Returns
   whether every output check passed. *)
let print ~trace o =
  List.iter print_endline o.lines;
  List.iter print_metric o.e2e;
  let causes =
    String.concat " "
      (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) o.causes)
  in
  Printf.printf "failed_frac %s fraction (%d of %d tasks failed; by cause: %s)\n"
    (number (ratio (float_of_int o.failed) (float_of_int o.attempted)))
    o.failed o.attempted
    (if causes = "" then "none" else causes);
  let value_of assoc name = Option.value ~default:0. (List.assoc_opt name assoc) in
  if trace then
    List.iter
      (fun (name, unit) ->
        Printf.printf "%s %s %s\n" name (number (value_of o.layers name)) unit)
      per_layer;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) o.problems;
  let correct = o.problems = [] in
  let metrics =
    if trace then
      List.map (fun (name, unit) -> (name, value_of o.layers name, unit)) per_layer
    else
      let e2e = List.map (fun m -> (m.name, m)) o.e2e in
      List.map
        (fun (name, unit) ->
          match List.assoc_opt name e2e with
          | Some m -> (name, m.value, unit)
          | None -> (name, 0., unit))
        end_to_end
  in
  print_endline (json ~correct ~attempted:o.attempted ~failed:o.failed metrics);
  correct

(* --- output checks against the pinned seed ------------------------------- *)

let pinned_seed = 1

let pinned_file ~dir workload = Filename.concat dir (workload ^ ".txt")

(* [(key, digest)] lines; '#' starts a comment. *)
let load_pinned ~dir workload =
  match In_channel.with_open_text (pinned_file ~dir workload) In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      Some
        (String.split_on_char '\n' text
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ key; digest ] when key <> "" && key.[0] <> '#' -> Some (key, digest)
               | _ -> None))

let write_pinned ~dir workload ~header entries =
  Out_channel.with_open_text (pinned_file ~dir workload) (fun oc ->
      List.iter (fun h -> Printf.fprintf oc "# %s\n" h) header;
      List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) entries)

(* Compare [entries] with the pinned ones that share their keys. Returns
   the problems found and a line describing the check. *)
let check_pinned ~dir workload entries =
  match load_pinned ~dir workload with
  | None ->
      ( [ Printf.sprintf "no pinned digests in %s" (pinned_file ~dir workload) ],
        "pinned digests: missing" )
  | Some pinned ->
      let checked = ref 0 in
      let problems =
        List.filter_map
          (fun (key, digest) ->
            match List.assoc_opt key pinned with
            | None -> None
            | Some expected ->
                incr checked;
                if expected = digest then None
                else
                  Some
                    (Printf.sprintf "%s task %s: simulated statistics digest %s, pinned %s"
                       workload key digest expected))
          entries
      in
      let problems =
        if !checked = 0 then [ "no task matched a pinned digest" ] @ problems
        else problems
      in
      ( problems,
        Printf.sprintf "pinned digests (seed %d): %d of %d digests checked, %d mismatched"
          pinned_seed !checked (List.length entries)
          (List.length problems) )

let count_causes (causes : string list array) =
  let table = Hashtbl.create 8 in
  Array.iter
    (List.iter (fun c ->
         Hashtbl.replace table c (1 + Option.value ~default:0 (Hashtbl.find_opt table c))))
    causes;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) table []
  |> List.sort compare

let failed_tasks causes =
  Array.fold_left (fun n c -> if c = [] then n else n + 1) 0 causes
