(** Sample statistics for experiment campaigns.

    Two flavours: {!t} stores every sample (exact quantiles, boxplots —
    what the paper's Table II and Figure 4 need for 50-round campaigns), and
    {!Running} keeps O(1) state for long workload simulations. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Raises [Invalid_argument] on a NaN sample: NaN would silently poison
    the [min]/[max] folds (every comparison with NaN is false) and mis-bin
    [histogram]/[quantile], so it is rejected at the door. Infinities are
    accepted — they order correctly. *)

val append : t -> t -> unit
(** [append t src] adds [src]'s samples to [t], in order, without copying
    them: [t] shares [src]'s sample arrays, and [src] stays usable. *)

val add_time : t -> Sim_time.t -> unit
(** Adds a {!Sim_time.t} sample converted to seconds. *)

val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** Raises [Invalid_argument] when empty; likewise for the accessors below. *)

val min : t -> float
val max : t -> float
val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for a single sample. *)

val total : t -> float

val quantile : t -> float -> float
(** [quantile t q] with [0 <= q <= 1]; linear interpolation between order
    statistics (type-7, as in R and NumPy). *)

val median : t -> float

type boxplot = {
  low_whisker : float;   (** smallest sample >= q1 - 1.5*IQR *)
  q1 : float;
  median : float;
  q3 : float;
  high_whisker : float;  (** largest sample <= q3 + 1.5*IQR *)
  outliers : float list; (** samples beyond the whiskers, ascending *)
}

val boxplot : t -> boxplot
(** Tukey boxplot summary, the statistic plotted in the paper's Figure 4. *)

val to_array : t -> float array
(** Samples in insertion order (a copy). *)

val iter : (float -> unit) -> t -> unit
(** Visit the samples in insertion order, copying nothing. *)

val histogram : t -> bins:int -> (float * int) list
(** [(lower_edge, count)] per equal-width bin over [\[min, max\]]; the last
    bin is inclusive of the maximum. Requires [bins > 0] and a non-empty
    sample; a constant sample lands entirely in one bin. *)

val summary_row : t -> string
(** ["avg / max / min"] in scientific notation, the format of the paper's
    Tables I and II. *)

val pp_sci : Format.formatter -> float -> unit
(** Prints like the paper: ["2.61e-04"]. *)

(** Constant-space accumulator (Welford's algorithm). *)
module Running : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Rejects NaN like {!Stats.add}. *)

  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end
