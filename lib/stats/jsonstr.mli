(** JSON text fragments for the stats emitters.

    [stats] sits below the JSON-value library in [bench_report], so
    {!Online.to_json_string} prints JSON text directly; these are the
    two pieces it shares with the CLI's hand-rolled printers. *)

val escape : string -> string
(** The string as a quoted JSON string literal. *)

val float_repr : float -> string
(** Shortest decimal that round-trips the float; non-finite values render
    as [null] (JSON has no representation for them). *)
