(** The vulnerability-vs-time report behind `dvf windows`.

    Correlates two independently derived views of the same question —
    {e when} during a run is a structure's data at risk:

    - windowed residency from a timed replay
      ({!Verify.timed_level_snapshots} on the small verification cache):
      line-events resident (and dirty) per time window;
    - windowed ground truth from a flip-time-stamped injection campaign
      ({!Injection.run_timed}): SDC rate per window of the flip's
      arrival time.

    Per structure it reports Spearman's rho between windowed exposure
    and windowed SDC rate; across structures, the rho between the
    time-weighted DVF ({!Verify.tw_dvf}'s kernel) and the
    whole-campaign SDC rate.  Every number is derived from exact
    integer accumulators and order-independent trial RNGs, so reports
    are bit-identical at any job count and across the
    replay/fused/sharded strategies. *)

type bin_row = {
  w_workload : string;
  w_structure : string;
  bin : int;        (** 0-based window index *)
  lo : float;       (** window bounds, fractions of the run *)
  hi : float;
  resident : float; (** line-events resident in this window *)
  dirty : float;    (** the dirty share of [resident] *)
  trials : int;     (** trials whose flip landed in this window *)
  sdc : int;
}

type curve = {
  c_workload : string;
  c_structure : string;
  tw : float;               (** time-weighted DVF (bit-events) *)
  sdc_rate : float;         (** whole-campaign SDC rate *)
  rho_time : float option;  (** windowed exposure vs windowed SDC rate *)
}

type report = {
  r_cache : Cachesim.Config.t;
  r_bins : int;
  rows : bin_row list;      (** workload-major, structure, then window *)
  curves : curve list;
  rho_overall : float option;
      (** tw-DVF vs SDC rate across all structures *)
}

val run :
  ?jobs:int ->
  ?telemetry:Dvf_util.Telemetry.t ->
  ?store:Memtrace.Tape_store.t ->
  ?seed:int ->
  ?trials:int ->
  ?bins:int ->
  ?workloads:Workload.t list -> unit -> report
(** Build the report over every workload with an injector ([workloads]
    defaults to the whole registry; others are skipped).  [seed]
    defaults to {!Injection.default_seed}, [trials] to each injector's
    default, [bins] to {!Cachesim.Residency.default_bins}; captures go
    through [store] when given (same key as `dvf verify`).  Raises
    [Invalid_argument] on [bins <= 0]. *)

val to_table : report -> Dvf_util.Table.t
(** One row per (workload, structure, window). *)

val curve_table : report -> Dvf_util.Table.t
(** One row per structure: tw-DVF, SDC rate, windowed rho. *)

val pp_correlations : Format.formatter -> report -> unit
(** The per-structure and cross-structure Spearman lines. *)

val to_csv : report -> string
(** The windowed rows as CSV (the artifact CI uploads). *)
