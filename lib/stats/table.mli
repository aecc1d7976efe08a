(** Column-aligned text tables for experiment reports.

    A tiny formatter: give it a header and string rows, it pads columns to
    the widest cell and prints with a separator rule. Keeps bench output
    copy-pasteable into EXPERIMENTS.md as-is. *)

type t

val create : header:string list -> t

val add_row : t -> string list -> unit
(** Rows may be shorter or longer than the header; missing cells render
    empty, extra cells extend the table. *)

val add_float_row : t -> string -> float list -> unit
(** Convenience: first cell is a label, remaining cells are formatted with
    [%.6g]. *)

val pp : Format.formatter -> t -> unit
