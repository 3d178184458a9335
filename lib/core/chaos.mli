(** Chaos campaigns: component-kill fault models over service-graph
    workloads, reported as availability alongside DVF.

    Each trial kills a random component subset of the workload's
    {!Workload.t.topology} and asks, per endpoint, whether requests
    still succeed; the per-endpoint loss tallies come from the same
    campaign engine as [dvf inject] ({!Injection.run_model} over
    {!Fault_model.component_kill}), so chaos runs inherit the
    splitmix64 seeding grid and parallel bit-identity.  The report pairs
    each endpoint's availability (with its Wilson interval) against the
    summed DVF of the components the endpoint touches, and ranks the two
    with Spearman rho — the paper's §VI comparison, lifted from
    structures to service endpoints. *)

type row = {
  endpoint : string;
  weight : float;        (** share of the request mix *)
  trials : int;
  lost : int;            (** trials where the endpoint went unserved *)
  availability : float;  (** 1 - lost/trials *)
  ci : float * float;    (** 95% Wilson interval on the availability *)
  dvf : float;
      (** analytical DVF summed over the endpoint's touched components
          (client included), from the profiling-scale spec *)
}

val row : row Dvf_util.Row.t
(** The wire declaration of {!type-row} (["chaos row"]); the Wilson
    interval travels as two fields. *)

type report = {
  workload : string;
  label : string;            (** fault-model label, e.g. the kill arity *)
  kill_fraction : float;
  killed_per_trial : int;
  components : int;
  seed : int;
  rows : row list;           (** endpoint declaration order *)
  requests_lost : float;
      (** mix-weighted loss rate: the fraction of all requests lost,
          [sum weight_e * (1 - availability_e)] *)
  rho : float option;
      (** Spearman rho, availability vs DVF across endpoints; [None]
          when undefined (fewer than two endpoints, or no rank
          variance) *)
}

val report : report Dvf_util.Row.t
(** The wire declaration of {!type-report} (["chaos report"]), with its
    rows nested. *)

val default_trials : int
(** 1000 — {!Fault_model.component_kill}'s default. *)

val run :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> ?kill_fraction:float ->
  ?cache:Cachesim.Config.t -> ?fit:float -> ?machine:Perf.machine ->
  Workload.t -> report option
(** Run one workload's chaos campaign ([None] if it has no topology).
    Defaults mirror {!Injection}: seed {!Injection.default_seed}, jobs 1
    (serial), cache {!Cachesim.Config.profiling_4mb}, fit
    {!Injection.default_fit}; [kill_fraction] defaults to
    {!Fault_model.default_kill_fraction}.  Telemetry lands under the
    ["chaos/"] namespace.  Results are bit-identical at any job
    count. *)

val run_all :
  ?seed:int -> ?trials:int -> ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t -> ?kill_fraction:float ->
  ?cache:Cachesim.Config.t -> ?fit:float -> ?machine:Perf.machine ->
  Workload.t list -> report list
(** {!run} for every workload that has a topology, sharing one domain
    pool; the rest are skipped. *)

val to_table : report -> Dvf_util.Table.t
(** Per-endpoint mix weight, loss counts, availability with its Wilson
    interval, and DVF. *)

val pp_summary : Format.formatter -> report -> unit
(** The mix-weighted loss rate and the availability-vs-DVF rho. *)

val to_csv : report list -> string
(** One line per (workload, endpoint): the workload, then {!row}'s CSV
    cells (floats in [%.17g], so the CSV round-trips exactly). *)
