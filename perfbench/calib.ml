(* Host-speed calibration.

   On a shared host the wall time of allocation-heavy OCaml code swings
   by up to 2x over seconds to minutes with other tenants' memory
   traffic, while the program does the same work (README.md, Steadiness).
   So the runs measure a fixed calibration task next to the program's
   work and report times at a reference host speed: a time measured
   while the calibration task took [c] ns is scaled by [reference_ns / c].

   The task is this file's code alone, never the simulator's, so a change
   to the simulator cannot move it. It allocates as the simulator does:
   small records through the minor heap into a major-heap structure of a
   few MB, then walks it. Each measurement first runs a full major
   collection (untimed), so the garbage the program left behind is not
   collected on the calibration's clock. *)

module M = Map.Make (Int)

let entries = 50_000

let task () =
  let m = ref M.empty in
  for i = 0 to entries - 1 do
    m := M.add ((i * 7919) land 0xfffff) (Bytes.create 64) !m
  done;
  let s = ref 0 in
  for _ = 1 to 3 do
    M.iter (fun k v -> s := !s + k + Bytes.length v) !m
  done;
  Sys.opaque_identity !s

(* The task's time at the reference speed: about its median on a 2-vCPU
   x86-64 VM while the measurements in README.md were taken. *)
let reference_ns = 40_000_000.

(* One calibration, in ns. *)
let measure () =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  ignore (task () : int);
  float_of_int (Clock.now_ns () - t0)

(* The factor that brings a time measured between calibrations [a] and
   [b] to the reference speed. *)
let factor a b = reference_ns /. ((a +. b) /. 2.)

(* The factors of [n] sweeps from the [n + 1] calibrations around them. *)
let factors cal = Array.init (Array.length cal - 1) (fun k -> factor cal.(k) cal.(k + 1))

(* [f k] for [k] = 0 .. [n] - 1 in order, with a calibration before each
   and after the last. *)
let around n f =
  let cal = Array.make (n + 1) 0. in
  let results =
    Array.init n (fun k ->
        cal.(k) <- measure ();
        f k)
  in
  cal.(n) <- measure ();
  (Array.to_list results, cal)
