(* Span recorder for the traced run.

   Each boundary the benchmark times is a kind; a span is one call across
   a boundary, from [enter] to [leave]. Spans nest on a preallocated
   stack, so every span knows its parent and the time its children took:
   a kind's self time is its spans' durations minus their children's.
   Self times therefore add up to the time spent inside root spans, and
   what lies outside every span is the run's unattributed remainder.

   Nothing here allocates after [create]: the stack, the per-kind
   accumulators and the span log are preallocated, and the clock read is
   a no-allocation C call. The log keeps the first [log_capacity] spans
   (name, start, end, parent, task) and is written out by [dump] when the
   run ends; the accumulators see every span. One recorder serves one
   domain. *)

let kind_names =
  [|
    "sim.event";
    "channel.fate";
    "channel.advance";
    "channel.other";
    "workload.payload";
    "workload.offer";
    "lams_dlc.rx";
    "lams_dlc.feedback";
    "hdlc.rx";
    "hdlc.feedback";
    "trace.record";
    "oracle.check";
  |]

let sim_event = 0
let channel_fate = 1
let channel_advance = 2
let channel_other = 3
let workload_payload = 4
let workload_offer = 5
let lams_rx = 6
let lams_feedback = 7
let hdlc_rx = 8
let hdlc_feedback = 9
let trace_record = 10
let oracle_check = 11
let n_kinds = Array.length kind_names

let layer_of_kind k =
  let name = kind_names.(k) in
  String.sub name 0 (String.index name '.')

let max_depth = 64
let log_capacity = 1 lsl 16

type t = {
  self_ns : int array;
  calls : int array;
  stk_kind : int array;
  stk_id : int array;
  stk_start : int array;
  stk_child : int array;  (** summed durations of the span's children *)
  mutable depth : int;
  mutable top_ns : int;  (** summed durations of root spans *)
  mutable next_id : int;
  mutable task : int;
  log_kind : int array;
  log_parent : int array;
  log_task : int array;
  log_start : int array;
  log_stop : int array;
}

let create () =
  let ints n = Array.make n 0 in
  {
    self_ns = ints n_kinds;
    calls = ints n_kinds;
    stk_kind = ints max_depth;
    stk_id = ints max_depth;
    stk_start = ints max_depth;
    stk_child = ints max_depth;
    depth = 0;
    top_ns = 0;
    next_id = 0;
    task = 0;
    log_kind = ints log_capacity;
    log_parent = ints log_capacity;
    log_task = ints log_capacity;
    log_start = ints log_capacity;
    log_stop = ints log_capacity;
  }

let set_task t i = t.task <- i

let enter t k =
  let d = t.depth in
  if d = max_depth then failwith "Spans.enter: spans nested too deeply";
  Array.unsafe_set t.stk_kind d k;
  Array.unsafe_set t.stk_id d t.next_id;
  Array.unsafe_set t.stk_child d 0;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1;
  (* the clock last, so the bookkeeping above is not inside the span *)
  Array.unsafe_set t.stk_start d (Clock.now_ns ())

let leave t =
  let stop = Clock.now_ns () in
  let d = t.depth - 1 in
  if d < 0 then failwith "Spans.leave: no open span";
  t.depth <- d;
  let k = Array.unsafe_get t.stk_kind d in
  let start = Array.unsafe_get t.stk_start d in
  let dur = stop - start in
  Array.unsafe_set t.self_ns k
    (Array.unsafe_get t.self_ns k + dur - Array.unsafe_get t.stk_child d);
  Array.unsafe_set t.calls k (Array.unsafe_get t.calls k + 1);
  let parent =
    if d > 0 then begin
      Array.unsafe_set t.stk_child (d - 1)
        (Array.unsafe_get t.stk_child (d - 1) + dur);
      Array.unsafe_get t.stk_id (d - 1)
    end
    else begin
      t.top_ns <- t.top_ns + dur;
      -1
    end
  in
  let id = Array.unsafe_get t.stk_id d in
  if id < log_capacity then begin
    Array.unsafe_set t.log_kind id k;
    Array.unsafe_set t.log_parent id parent;
    Array.unsafe_set t.log_task id t.task;
    Array.unsafe_set t.log_start id start;
    Array.unsafe_set t.log_stop id stop
  end

(* [f] as a call across boundary [k]; the span closes on exceptions too,
   so the stack stays balanced. *)
let wrap t k f x =
  enter t k;
  match f x with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let self_ns t k = t.self_ns.(k)
let calls t k = t.calls.(k)
let top_ns t = t.top_ns
let spans t = t.next_id

(* The logged spans as tab-separated lines; times are nanoseconds since
   the first logged span started. *)
let dump t path =
  let n = min t.next_id log_capacity in
  let t0 = if n = 0 then 0 else t.log_start.(0) in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# %d spans, first %d logged\n" t.next_id n;
      output_string oc "id\tparent\ttask\tname\tstart_ns\tend_ns\n";
      for i = 0 to n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i t.log_parent.(i)
          t.log_task.(i)
          kind_names.(t.log_kind.(i))
          (t.log_start.(i) - t0)
          (t.log_stop.(i) - t0)
      done)
