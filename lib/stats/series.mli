(** Labelled (x, y) series and simple ASCII plotting.

    Experiments accumulate one series per protocol/parameter setting and
    render them either as aligned text tables (for EXPERIMENTS.md) or as a
    quick terminal plot for eyeballing crossovers. *)

type t

val create : name:string -> t

val add : t -> x:float -> y:float -> unit

val pp_ascii_plot : Format.formatter -> t list -> unit
(** Crude scatter plot of up to 9 series (distinct digit markers) on a
    72-column canvas of 14 rows, with axis ranges taken from the data. *)
