(** The line reader shared by the fault-script ({!Fault}) and
    corruption-script ([Dlc.Corrupt]) text formats.

    A script is either rule lines or one [adversary] line. [#] starts a
    comment, tokens are separated by spaces or tabs, blank lines are
    skipped, and an error names its line as [line N: ...]. *)

val parse_kv : string -> (string * string) option
(** [key=value] as [(key, value)]; [None] without an [=]. *)

val int_of : what:string -> string -> (int, string) result

val float_of : what:string -> string -> (float, string) result

val parse :
  what:string ->
  adversary:(string list -> ('spec, string) result) ->
  rule:(string list -> ('rule, string) result) ->
  rules:('rule list -> 'spec) ->
  string ->
  ('spec, string) result
(** [parse ~what ~adversary ~rule ~rules text] reads [text] line by
    line: [adversary] parses the arguments of an [adversary] line,
    [rule] the tokens of any other line, and [rules] builds the spec of
    a rule script. [what] prefixes the whole-script errors
    (["WHAT: empty script"], ["WHAT: cannot mix adversary with rule
    lines"]). *)

val load :
  (string -> ('spec, string) result) -> string -> ('spec, string) result
(** [load parse path] parses the contents of the file at [path]; a file
    that cannot be read is an [Error] with the system's message. *)
