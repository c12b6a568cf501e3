(** The experiment registry: the run path over {!Experiment.specs}.

    The [satin_cli] experiment subcommands, [campaign] (its names and
    default set), [all], the [--json] summaries and the bench runner are
    all generated from the specs, each declared at the end of its
    experiment's section of {!Experiment}; DESIGN.md §4 says how to add
    one. *)

module Json = Satin_obs.Json
module Runner = Satin_runner.Runner

type kind = Experiment.kind =
  | Seeded  (** in [all] and the default campaign *)
  | Closed_form  (** seed-independent: in [all] only *)
  | Deployment  (** in neither; run by name *)

type t
(** One experiment's {!Experiment.spec}. *)

val specs : t list
(** In paper (campaign) order. *)

val name : t -> string
val kind : t -> kind

val commands : (string * string) list
(** Every runnable name with its doc: each spec, then its views. *)

val default_campaign : string list
(** The {!Seeded} specs, in order. *)

val run :
  Format.formatter -> pool:Runner.t -> seed:int -> quick:bool -> string ->
  Json.t
(** Run the spec owning a command at the [campaign --quick] scale or the
    paper scale, print the command's rendering and return the spec's
    summary. The one run path: each run records its host wall-clock as
    [experiment.wall_s{experiment=<spec name>}] in the real-time registry
    of an installed sink. Raises [Invalid_argument] on a name outside
    {!commands}. *)

val all :
  Format.formatter -> pool:Runner.t -> seed:int -> quick:bool ->
  (string * Json.t) list
(** Every non-{!Deployment} spec once, in order, each followed by its
    views; one summary per spec. *)

val campaign :
  Format.formatter -> pool:Runner.t -> seeds:int list -> quick:bool ->
  string list -> (string * Json.t) list
(** For each seed, print each command's rendering under a
    [==== campaign: NAME seed=S ====] header, in the order given. A spec
    runs at most once per seed, at the first of its commands; a later
    command of the same spec (Figure 4 after Table II) prints from that
    result, and its summary is the same. Summaries are keyed by name for
    one seed, by ["NAME seed=S"] for several. *)
