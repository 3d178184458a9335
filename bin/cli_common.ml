(* Shared cmdliner terms for every dvf subcommand.

   Each subcommand used to re-declare its own --jobs/--seed/--csv/
   --machine arguments, and their docstrings and defaults drifted.  They
   are defined once here; a subcommand composes exactly the terms it
   needs, so `dvf verify --help` and `dvf inject --help` describe -j
   identically. *)

open Cmdliner

(* --- model-file / machine / parameter terms --- *)

let model_file =
  let doc = "Aspen model file; the builtin models are used when absent." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let machine_name =
  let doc = "Machine declaration to evaluate against." in
  Arg.(
    value & opt string "prof_8mb" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let param_overrides =
  let doc = "Override an app parameter, e.g. --param n=5000 (repeatable)." in
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
        let name = String.sub s 0 i in
        let value = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt value with
        | Some v -> Ok (name, v)
        | None -> Error (`Msg (Printf.sprintf "bad parameter value in %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected NAME=VALUE, got %S" s))
  in
  let print fmt (name, v) = Format.fprintf fmt "%s=%g" name v in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "p"; "param" ] ~docv:"NAME=VALUE" ~doc)

(* --- workload selection --- *)

let workload_conv =
  (* Case-insensitive registry lookup; the error names every registered
     workload so typos are self-correcting.  The built-in service-graph
     workloads are opt-in (they would otherwise grow the pinned default
     verify/inject tables), so a registry miss falls back to
     [Service_workloads.find], which registers the named one on the way
     out. *)
  let parse s =
    match Core.Workloads.find s with
    | Some w -> Ok w
    | None -> (
        match Core.Service_workloads.find s with
        | Some w -> Ok w
        | None ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown workload %S (registered: %s; on demand: %s)" s
                   (String.concat ", " (Core.Workloads.names ()))
                   (String.concat ", " (Core.Service_workloads.names ())))))
  in
  let print fmt (w : Core.Workload.t) =
    Format.pp_print_string fmt w.Core.Workload.name
  in
  Arg.conv (parse, print)

let workload_pos_args =
  let doc = "Workloads by registry name (default: every registered one)." in
  Arg.(
    value
    & pos_all workload_conv (Core.Workloads.all ())
    & info [] ~docv:"WORKLOAD" ~doc)

(* --- parallelism --- *)

let jobs =
  let doc =
    "Worker domains for parallel sweeps (default: the runtime's \
     recommended domain count).  $(b,-j 1) forces the serial path."
  in
  Arg.(
    value
    & opt int (Dvf_util.Parallel.recommended_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_jobs jobs =
  if jobs <= 0 then begin
    Printf.eprintf "error: -j expects a positive integer (got %d)\n" jobs;
    exit 1
  end;
  jobs

(* --- hierarchy --- *)

let levels =
  let doc =
    "Cache hierarchy depth (1..3).  Levels past L1 keep the base \
     geometry's associativity and line size with 8x the sets per level \
     and report their own per-level statistics; the default 1 is the \
     single-cache behaviour."
  in
  Arg.(value & opt int 1 & info [ "levels" ] ~docv:"N" ~doc)

let check_levels levels =
  if levels < 1 || levels > 3 then begin
    Printf.eprintf "error: --levels expects 1..3 (got %d)\n" levels;
    exit 1
  end;
  levels

(* --- time windows --- *)

let bins =
  let doc =
    "Time windows per run for time-resolved reports: the logical clock \
     (one tick per trace event) is split into $(docv) equal windows."
  in
  Arg.(
    value
    & opt int Cachesim.Residency.default_bins
    & info [ "bins" ] ~docv:"N" ~doc)

let check_bins bins =
  if bins < 1 || bins > Cachesim.Residency.max_bins then begin
    Printf.eprintf "error: --bins expects 1..%d (got %d)\n"
      Cachesim.Residency.max_bins bins;
    exit 1
  end;
  bins

(* --- persistent tape store --- *)

let tape_store =
  let doc =
    "Persist captured trace tapes in $(docv) (created if missing) and \
     reuse them across runs: a warm store skips workload capture \
     entirely and replays straight from disk.  Entries are \
     content-addressed by (workload, size, seed, format version); \
     corrupt or stale entries are evicted and recaptured.  Results are \
     bit-identical with or without the store."
  in
  Arg.(value & opt (some string) None & info [ "tape-store" ] ~docv:"DIR" ~doc)

(* Open the store (if requested) against the run's telemetry collector,
   so store/hits, store/misses and load/save byte counters land in the
   same --metrics document as everything else. *)
let open_tape_store ~telemetry = function
  | None -> None
  | Some dir -> Some (Memtrace.Tape_store.create ~telemetry ~dir ())

(* --- campaign knobs (dvf inject / dvf chaos / dvf windows) --- *)

let seed =
  let doc = "Campaign seed; trial RNGs are derived from it." in
  Arg.(
    value
    & opt int Core.Injection.default_seed
    & info [ "seed" ] ~docv:"SEED" ~doc)

let csv =
  let doc = "Also write the report rows to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let trials =
  let doc =
    "Trials per campaign target — per structure for bit flips, per \
     endpoint for component kills (default: the fault model's own)."
  in
  Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N" ~doc)

let kill_fraction =
  let doc =
    "Fraction of components killed per chaos trial, in [0, 1]; rounded \
     to the nearest whole component count.  0 kills nothing (every \
     trial is a clean run)."
  in
  Arg.(
    value
    & opt float Core.Fault_model.default_kill_fraction
    & info [ "kill-fraction" ] ~docv:"F" ~doc)

let check_kill_fraction f =
  if (not (Float.is_finite f)) || f < 0.0 || f > 1.0 then begin
    Printf.eprintf "error: --kill-fraction expects a value in [0, 1] (got %g)\n"
      f;
    exit 1
  end;
  f

(* The knobs every campaign subcommand shares, validated once:
   [dvf inject] and [dvf chaos] used to re-declare this plumbing. *)
type campaign = {
  c_jobs : int;
  c_trials : int option;
  c_seed : int;
  c_csv : string option;
  c_metrics : string option;
}

(* --- telemetry --- *)

let metrics =
  let doc =
    "Write machine-readable run metrics (phase wall-clock spans, \
     throughput counters and gauges) to $(docv) as versioned JSON.  \
     Collection is off — and costs nothing — when this option is absent, \
     and never changes the computed results."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* [with_metrics metrics f] runs [f] with a collector matching the
   [--metrics] choice: the zero-cost null sink when absent, a fresh
   enabled collector (serialized to the file afterwards) when present.
   The confirmation goes to stderr so stdout stays byte-identical with
   and without --metrics. *)
let with_metrics metrics f =
  match metrics with
  | None -> f Dvf_util.Telemetry.null
  | Some path ->
      let telemetry = Dvf_util.Telemetry.create () in
      let result = f telemetry in
      Dvf_util.Telemetry.write_file telemetry path;
      Printf.eprintf "metrics written to %s\n" path;
      result

let campaign_term =
  let make jobs trials seed csv metrics =
    let jobs = check_jobs jobs in
    (match trials with
    | Some t when t < 1 || t > Core.Injection.max_trials ->
        Printf.eprintf "error: --trials expects 1..%d (got %d)\n"
          Core.Injection.max_trials t;
        exit 1
    | _ -> ());
    { c_jobs = jobs; c_trials = trials; c_seed = seed; c_csv = csv;
      c_metrics = metrics }
  in
  Term.(const make $ jobs $ trials $ seed $ csv $ metrics)
