(** JSONL trace validation.

    A valid trace is a sequence of newline-separated JSON objects, each
    decodable by {!Event.of_line} (required fields present and
    well-typed, tag consistent with payload), with strictly increasing
    event indices. Full traces start at index 0 with step 1; flight
    dumps start anywhere (the ring cut them out of a longer stream) but
    stay strictly increasing. *)

val fold_file :
  string -> init:'a -> ('a -> Event.t -> 'a) -> ('a, string) result
(** Fold over the events of a trace file in order, each validated before
    [f] sees it. [Error] names the first line that fails (["line N:
    ..."]), or the read failure. *)

val validate_file : string -> (int, string) result
(** The number of events in a valid trace file ({!fold_file} counting
    them). *)
