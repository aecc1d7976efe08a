(* Monotonic wall clock in integer nanoseconds (clock_stubs.c). *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let seconds_of_ns ns = float_of_int ns *. 1e-9
