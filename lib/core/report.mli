(** Plain-text rendering of experiment results: aligned tables in the
    paper's format (scientific notation for sub-second timings), section
    banners, and ASCII boxplots/bars for the figures. *)

val section : string -> string
(** A banner line, e.g. ["==== Table I ... ===="]. *)

val table : header:string list -> string list list -> string
(** Column-aligned table with a rule under the header. All rows must have
    the header's arity. *)

val sci : float -> string
(** ["2.61e-04"]-style scientific notation (the paper's table format). *)

val pct : float -> string
(** Percentage with three decimals, e.g. ["0.711%"] (Figure 7's format). *)

val boxplot_row :
  label:string -> Satin_engine.Stats.boxplot -> width:int -> lo:float -> hi:float -> string
(** One ASCII boxplot lane ["|----[==|==]-----| oo"] scaled to [\[lo,hi\]]. *)

val bar : label:string -> value:float -> max_value:float -> width:int -> string
(** Horizontal bar for figure-style series. *)
