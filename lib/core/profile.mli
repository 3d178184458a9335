(** DVF profiling (paper §IV-B, Fig. 5).

    Evaluates each workload's CGPMAC spec at the Table VI profiling sizes
    across the four Table IV cache configurations, with execution time
    from the roofline model and the unprotected FIT (Table VII).
    Everything is analytical — this is the fast path the paper
    advertises ("evaluation cost at the time granularity of seconds"). *)

type row = {
  workload : string;        (** registry name, e.g. "CG" *)
  cache : Cachesim.Config.t;
  structure : string;       (** data-structure name, or the workload name for DVF_a *)
  dvf : float;
  n_ha : float;
  bytes : int;
  time : float;             (** modeled execution time, s *)
}

val row : row Dvf_util.Row.t
(** The wire declaration of {!type-row} (["profile row"]). *)

val profile_instance :
  ?machine:Perf.machine -> ?fit:float -> cache:Cachesim.Config.t ->
  Workload.instance -> row list
(** Per-structure rows followed by one aggregate row (Eq. 2) whose
    [structure] is the workload name. *)

val run_all :
  ?machine:Perf.machine -> ?fit:float ->
  ?caches:Cachesim.Config.t list -> ?workloads:Workload.t list -> unit ->
  row list
(** Fig. 5: all workloads x the four profiling caches.  [fit] defaults to
    the unprotected 5000 FIT/Mbit; [workloads] to everything registered. *)

val to_table : row list -> Dvf_util.Table.t
