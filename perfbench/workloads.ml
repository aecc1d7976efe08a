(* The benchmark's workloads. README.md says why each exists and what it
   is predicted not to move; the names are fixed. *)

module Scenario = Experiments.Scenario

type proto = Lams | Hdlc

type session = {
  per_sweep : int;  (** sessions per sweep: part of the definition *)
  frames : int;  (** saturating frames per session: part of the definition *)
  burst : Scenario.burst option;  (** Gilbert–Elliott I-frame channel *)
  proto : proto;
  checked : bool;  (** recorder + oracle through [Scenario.run_checked] *)
}

type kind = Session of session | Matrix

type t = {
  name : string;
  kind : kind;
  per_second : float;
      (** sweeps per second of [--seconds]: the work of a run is
          [ceil (seconds * per_second)] sweeps over the workload's task
          list, never a time budget *)
}

(* Mispointing bursts on the I-frame channel: 1e-3 BER for a mean of 1e6
   bits every mean 3e6 bits, 1e-6 between them. *)
let storm =
  {
    Scenario.ber_good = 1e-6;
    ber_bad = 1e-3;
    mean_burst_bits = 1e6;
    mean_gap_bits = 2e6;
  }

(* [per_second] was calibrated so that a run measures about [--seconds]
   on a 2-vCPU x86-64 VM (OCaml 5.1.1) under a typical load of its shared
   host; README.md gives the times measured. *)
let all =
  [
    {
      name = "lams-bulk";
      kind =
        Session
          { per_sweep = 6; frames = 20_000; burst = None; proto = Lams; checked = false };
      per_second = 1.0;
    };
    {
      name = "lams-storm-checked";
      kind =
        Session
          { per_sweep = 6; frames = 5_000; burst = Some storm; proto = Lams; checked = true };
      per_second = 1.0;
    };
    {
      name = "hdlc-bulk";
      kind =
        Session
          { per_sweep = 6; frames = 20_000; burst = None; proto = Hdlc; checked = false };
      per_second = 1.0;
    };
    { name = "matrix-quick"; kind = Matrix; per_second = 0.55 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names () = List.map (fun w -> w.name) all

let sweeps w ~seconds =
  max 1 (int_of_float (Float.ceil (float_of_int seconds *. w.per_second)))

(* Per-task seeds derive from the workload seed; task [i] of a workload
   sees the same inputs whatever the run's length. *)
let task_seed w ~seed i = Sim.Rng.derive_seed ~root:seed [ w.name; string_of_int i ]

let warmup_seed w ~seed i =
  Sim.Rng.derive_seed ~root:seed [ w.name; "warm-up"; string_of_int i ]

let config s ~seed =
  { Scenario.default with seed; n_frames = s.frames; burst = s.burst }

let protocol s (cfg : Scenario.config) =
  match s.proto with
  | Lams -> Scenario.Lams (Scenario.default_lams_params cfg)
  | Hdlc -> Scenario.Hdlc (Scenario.default_hdlc_params cfg)
