(** Minimal JSON values: printer and recursive-descent parser.

    Self-contained so the benchmark pipeline has no dependency beyond the
    stdlib (the container image does not ship [yojson]). The subset is
    full JSON: objects, arrays, strings with escapes, numbers, booleans,
    null. Numbers parse to [Int] when the literal is integral and fits an
    OCaml [int], to [Float] otherwise; non-finite floats print as [null]
    because JSON has no representation for them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render. [?indent] > 0 pretty-prints with that step; default 0 is
    compact one-line output. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. The
    error string carries a byte offset. *)

(** {2 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Int] and [Float] both convert; [Null] reads as [nan] (the printer's
    encoding of non-finite floats). *)

val to_int : t -> int option
(** [Int] only. *)

val to_str : t -> string option

val to_list : t -> t list option
