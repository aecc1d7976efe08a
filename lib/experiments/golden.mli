(** The golden files checked in under [test/data], each with the one
    deterministic scenario that regenerates it.

    [dune runtest] regenerates every entry and compares it byte for
    byte with the checked-in file, and fails on a file no entry
    produces; [lams_dlc_cli golden regen] rewrites the files from the
    same entries. A golden therefore cannot land without its recipe.

    Besides its bytes, each scenario checks the outcome its golden pins
    (for example the lying-feedback golden's one lie, one quarantine,
    one forced resync and no wrongful release), so a regenerated golden
    cannot silently stop showing what it was recorded for. *)

type output = {
  files : (string * string) list;
      (** [(file name, contents)]; names are relative to [test/data] *)
  failures : string list;  (** the outcome checks the run failed *)
}

type entry = { name : string; generate : unit -> output }
(** [name] is the entry's main file; a captured trace also writes its
    [.metrics.json] sidecar. *)

val entries : entry list
(** In file order:
    - [trace-golden.jsonl]: the {!scripted_transfer} at seed 7, 24 frames;
    - [corrupt-golden.jsonl]: E22's reverse replay on LAMS-DLC, seed 7,
      200 frames;
    - [feedback-golden.jsonl]: E24's forged ACK on guarded LAMS-DLC,
      seed 7, 200 frames;
    - [channel-trace-golden.trace]: an eclipse channel trace, seed 23,
      1,200 frames of 256 B;
    - [channel-replay-golden.jsonl]: a LAMS-DLC session replaying that
      trace, seed 850, 120 frames of 256 B. *)

val scripted_transfer :
  seed:int -> frames:int -> recorder:Trace.Recorder.t -> Oracle.violation list
(** [lams_dlc_cli trace run]'s default scenario: a clean-channel,
    oracle-watched LAMS-DLC transfer of [frames] 256 B frames with a
    scripted drop of I-frames 5 and 12 and of checkpoint 3, recorded
    into [recorder]. Returns the oracle's violations. *)
