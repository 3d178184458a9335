module Table = Dvf_util.Table
module Row = Dvf_util.Row

type row = {
  workload : string;
  cache : Cachesim.Config.t;
  structure : string;
  simulated : float;
  modeled : float;
}

let row =
  Row.make "verify row"
    Row.[
      field "workload" Str (fun r -> r.workload);
      field "cache" (Row Cachesim.Config.row) (fun r -> r.cache);
      field "structure" Str (fun r -> r.structure);
      field "simulated" Float (fun r -> r.simulated);
      field "modeled" Float (fun r -> r.modeled);
    ]
    (fun workload cache structure simulated modeled ->
      { workload; cache; structure; simulated; modeled })

let error row =
  Dvf_util.Maths.rel_error ~expected:row.simulated ~actual:row.modeled

module Telemetry = Dvf_util.Telemetry

(* Turn one simulated cache's final state into Fig. 4 rows: run the
   analytical model (under a ["model"] span) and pair each structure's
   estimate with the simulator's per-owner main-memory count. *)
let rows_of_snapshot ~telemetry ~cache ~registry (instance : Workload.instance)
    snapshot =
  let modeled =
    Telemetry.span telemetry "model" (fun () ->
        Access_patterns.App_spec.main_memory_accesses ~cache
          instance.Workload.spec)
  in
  List.map
    (fun (structure, model_value) ->
      let region = Memtrace.Region.lookup registry structure in
      let simulated =
        float_of_int
          (Cachesim.Stats.Snapshot.owner_main_memory snapshot
             region.Memtrace.Region.id)
      in
      { workload = instance.Workload.workload; cache; structure; simulated;
        modeled = model_value })
    modeled

let verify_instance ?(telemetry = Telemetry.null) ~cache
    (instance : Workload.instance) =
  Telemetry.span telemetry
    (Printf.sprintf "verify/%s/%s" instance.Workload.workload
       cache.Cachesim.Config.name)
  @@ fun () ->
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.buffered () in
  let sim_cache = Cachesim.Cache.create cache in
  ignore
    (Memtrace.Recorder.add_batch_sink recorder
       (Memtrace.Recorder.cache_batch_sink sim_cache));
  let trace_ns = ref 0L in
  Telemetry.span telemetry "trace" (fun () ->
      let t0 = Telemetry.now_ns telemetry in
      instance.Workload.trace registry recorder;
      Memtrace.Recorder.flush recorder;
      Cachesim.Cache.flush sim_cache;
      trace_ns := Int64.sub (Telemetry.now_ns telemetry) t0);
  let snapshot =
    Cachesim.Stats.snapshot (Cachesim.Cache.stats sim_cache)
  in
  if Telemetry.enabled telemetry then begin
    (* Global accumulators the throughput gauges divide at the end of the
       sweep; counters are deterministic, the [trace_total] span is not. *)
    Telemetry.add telemetry ~n:(Memtrace.Recorder.events_emitted recorder)
      "recorder/events";
    Telemetry.add telemetry
      ~n:(Memtrace.Recorder.batches_dispatched recorder)
      "recorder/batches";
    Telemetry.add telemetry
      ~n:(Cachesim.Stats.Snapshot.accesses snapshot.Cachesim.Stats.totals)
      "cache/accesses";
    Telemetry.time_ns telemetry "verify/trace_total" !trace_ns
  end;
  rows_of_snapshot ~telemetry ~cache ~registry instance snapshot

(* --- capture once, replay many --- *)

type capture = {
  instance : Workload.instance;
  registry : Memtrace.Region.t;
  tape : Memtrace.Tape.t;
}

let capture_fresh ~telemetry (instance : Workload.instance) =
  Telemetry.span telemetry
    (Printf.sprintf "verify/%s/capture" instance.Workload.workload)
  @@ fun () ->
  let registry = Memtrace.Region.create () in
  let recorder = Memtrace.Recorder.buffered () in
  let tape = Memtrace.Tape.create () in
  ignore
    (Memtrace.Recorder.add_batch_sink recorder (Memtrace.Tape.batch_sink tape));
  let t0 = Telemetry.now_ns telemetry in
  instance.Workload.trace registry recorder;
  Memtrace.Recorder.flush recorder;
  let capture_ns = Int64.sub (Telemetry.now_ns telemetry) t0 in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry ~n:(Memtrace.Recorder.events_emitted recorder)
      "recorder/events";
    Telemetry.add telemetry
      ~n:(Memtrace.Recorder.batches_dispatched recorder)
      "recorder/batches";
    Telemetry.add telemetry ~n:(Memtrace.Tape.length tape)
      "tape/capture_events";
    Telemetry.add telemetry ~n:(Memtrace.Tape.allocated_bytes tape)
      "tape/allocated_bytes";
    Telemetry.time_ns telemetry "verify/capture_total" capture_ns
  end;
  (registry, tape)

(* The workloads take no per-run seed (instances are deterministic given
   their size label), so the store key's seed slot is fixed at 0 until a
   seeded workload family needs it. *)
let store_key (instance : Workload.instance) =
  {
    Memtrace.Tape_store.workload = instance.Workload.workload;
    size = instance.Workload.label;
    seed = 0;
  }

let capture ?(telemetry = Telemetry.null) ?store
    (instance : Workload.instance) =
  let registry, tape =
    match store with
    | None -> capture_fresh ~telemetry instance
    | Some st ->
        (* On a store hit the kernel never runs and no tape events are
           captured: [tape/capture_events] stays 0 while [store/hits]
           advances — the pair CI asserts on a warm store. *)
        let registry, tape, _hit =
          Memtrace.Tape_store.find_or_capture st (store_key instance)
            ~capture:(fun () -> capture_fresh ~telemetry instance)
        in
        (registry, tape)
  in
  { instance; registry; tape }

(* --- the engine ---

   One unit of work per workload: capture its tape (or load it from the
   store), walk the tape once over every consumer — caches, or
   hierarchies — and turn the consumers' final state into rows.  [sweep]
   fans these units over [jobs] domains.  Each unit owns its private
   mutable state (the tape is append-only during capture and read-only
   afterwards), so units share nothing mutable, and [Parallel.map_list]
   preserves input order: rows are identical at any job count. *)

let replay_capture_fused ?(telemetry = Telemetry.null) ~caches cap =
  Telemetry.span telemetry
    (Printf.sprintf "verify/%s" cap.instance.Workload.workload)
  @@ fun () ->
  let sims = Array.of_list (List.map Cachesim.Cache.create caches) in
  Telemetry.span telemetry "replay" (fun () ->
      let t0 = Telemetry.now_ns telemetry in
      Memtrace.Tape.replay_fused cap.tape sims;
      Array.iter Cachesim.Cache.flush sims;
      if Telemetry.enabled telemetry then begin
        Telemetry.add telemetry
          ~n:(Array.length sims * Memtrace.Tape.length cap.tape)
          "tape/replay_events";
        Telemetry.time_ns telemetry "verify/replay_total"
          (Int64.sub (Telemetry.now_ns telemetry) t0)
      end);
  List.concat
    (List.mapi
       (fun i cache ->
         let snapshot =
           Cachesim.Stats.snapshot (Cachesim.Cache.stats sims.(i))
         in
         if Telemetry.enabled telemetry then
           Telemetry.add telemetry
             ~n:
               (Cachesim.Stats.Snapshot.accesses
                  snapshot.Cachesim.Stats.totals)
             "cache/accesses";
         rows_of_snapshot ~telemetry ~cache ~registry:cap.registry
           cap.instance snapshot)
       caches)

let finalize_metrics telemetry =
  if Telemetry.enabled telemetry then begin
    Telemetry.gauge_rate telemetry ~name:"recorder/events_per_sec"
      ~counter:"recorder/events" ~span:"verify/capture_total";
    Telemetry.gauge_rate telemetry ~name:"tape/capture_events_per_sec"
      ~counter:"tape/capture_events" ~span:"verify/capture_total";
    Telemetry.gauge_rate telemetry ~name:"tape/replay_events_per_sec"
      ~counter:"tape/replay_events" ~span:"verify/replay_total";
    Telemetry.gauge_rate telemetry ~name:"tape/timed_replay_events_per_sec"
      ~counter:"tape/timed_replay_events" ~span:"verify/timed_total";
    Telemetry.gauge_rate telemetry ~name:"cache/accesses_per_sec"
      ~counter:"cache/accesses" ~span:"verify/replay_total";
    let captured = Telemetry.counter_value telemetry "tape/capture_events" in
    if captured > 0 then
      Telemetry.set_gauge telemetry "tape/bytes_per_event"
        (float_of_int (Telemetry.counter_value telemetry "tape/allocated_bytes")
        /. float_of_int captured);
    let batches = Telemetry.counter_value telemetry "recorder/batches" in
    if batches > 0 then
      Telemetry.set_gauge telemetry "recorder/mean_batch_size"
        (float_of_int (Telemetry.counter_value telemetry "recorder/events")
        /. float_of_int batches)
  end

(* Run [unit_of_work] on every workload's capture, over [jobs] domains,
   concatenating rows in workload order.  Wall time goes to
   ["verify/total"] as an absolute timer rather than an enclosing
   [span]: units run in worker domains (fresh span stacks) under
   [-j N], so an enclosing span would prefix their paths only in the
   serial case. *)
let sweep ?jobs ~telemetry ?store ?workloads unit_of_work =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Dvf_util.Parallel.recommended_jobs ()
  in
  let t0 = Telemetry.now_ns telemetry in
  let rows =
    List.concat
      (Dvf_util.Parallel.map_list ~telemetry ~jobs
         (fun workload ->
           unit_of_work
             (capture ~telemetry ?store
                (Workloads.verification_instance workload)))
         workloads)
  in
  if Telemetry.enabled telemetry then
    Telemetry.time_ns telemetry "verify/total"
      (Int64.sub (Telemetry.now_ns telemetry) t0);
  rows

let run_all ?jobs ?(telemetry = Telemetry.null) ?store ?workloads () =
  let caches = Cachesim.Config.verification_set in
  let rows =
    sweep ?jobs ~telemetry ?store ?workloads
      (replay_capture_fused ~telemetry ~caches)
  in
  finalize_metrics telemetry;
  rows

(* --- per-level rows: DVF input per hardware level ---

   A hierarchy run reports raw traffic per level instead of the
   modeled-vs-simulated pair: the analytical model targets a single
   (last-level) cache, but per-level misses and writebacks are exactly
   the per-level access counts a Thales-style vulnerability formulation
   consumes.  Level 1 of a 1-level run is bit-identical to the single
   cache the classic rows simulate. *)

type level_row = {
  l_workload : string;
  base_cache : Cachesim.Config.t;
  level : int; (* 1-based *)
  level_cache : Cachesim.Config.t;
  l_structure : string;
  accesses : float;
  misses : float;
  l_writebacks : float;
}

let level_row =
  Row.make "level row"
    Row.[
      field "workload" Str (fun r -> r.l_workload);
      field "base_cache" (Row Cachesim.Config.row) (fun r -> r.base_cache);
      field "level" Int (fun r -> r.level);
      field "level_cache" (Row Cachesim.Config.row) (fun r -> r.level_cache);
      field "structure" Str (fun r -> r.l_structure);
      field "accesses" Float (fun r -> r.accesses);
      field "misses" Float (fun r -> r.misses);
      field "writebacks" Float (fun r -> r.l_writebacks);
    ]
    (fun l_workload base_cache level level_cache l_structure accesses misses
         l_writebacks ->
      { l_workload; base_cache; level; level_cache; l_structure; accesses;
        misses; l_writebacks })

let level_rows_of_stats ~registry (instance : Workload.instance) ~base ~configs
    stats_list =
  List.concat
    (List.mapi
       (fun li (config, stats) ->
         let snapshot = Cachesim.Stats.snapshot stats in
         List.map
           (fun (r : Memtrace.Region.region) ->
             let c =
               Cachesim.Stats.Snapshot.owner snapshot r.Memtrace.Region.id
             in
             {
               l_workload = instance.Workload.workload;
               base_cache = base;
               level = li + 1;
               level_cache = config;
               l_structure = r.Memtrace.Region.name;
               accesses = float_of_int (Cachesim.Stats.Snapshot.accesses c);
               misses = float_of_int c.Cachesim.Stats.misses;
               l_writebacks = float_of_int c.Cachesim.Stats.writebacks;
             })
           (Memtrace.Region.regions registry))
       (List.combine configs stats_list))

let hierarchy_level_stats h =
  List.init (Cachesim.Hierarchy.depth h) (fun li ->
      Cachesim.Cache.stats (Cachesim.Hierarchy.level_cache h li))

let record_level_counters telemetry ~configs stats_list =
  if Telemetry.enabled telemetry then
    List.iteri
      (fun li ((_ : Cachesim.Config.t), stats) ->
        let totals = Cachesim.Stats.totals stats in
        let name fmt = Printf.sprintf fmt (li + 1) in
        Telemetry.add telemetry
          ~n:(Cachesim.Stats.Snapshot.accesses totals)
          (name "hierarchy/l%d/accesses");
        Telemetry.add telemetry ~n:totals.Cachesim.Stats.misses
          (name "hierarchy/l%d/misses");
        Telemetry.add telemetry ~n:totals.Cachesim.Stats.writebacks
          (name "hierarchy/l%d/writebacks"))
      (List.combine configs stats_list)

(* One capture's per-level rows over every verification base geometry:
   one fused walk drives every base's hierarchy.  The unit of work in
   [run_all_levels] and the whole job for a [Serve] levels request. *)
let capture_level_rows ?(telemetry = Telemetry.null) ~levels cap =
  let bases = Cachesim.Config.verification_set in
  let configs_of base = Cachesim.Config.hierarchy_of ~levels base in
  let hierarchies =
    List.map (fun base -> Cachesim.Hierarchy.create (configs_of base)) bases
  in
  Memtrace.Tape.replay_hierarchies cap.tape (Array.of_list hierarchies);
  List.concat
    (List.map2
       (fun base h ->
         Cachesim.Hierarchy.flush h;
         let configs = configs_of base in
         let stats_list = hierarchy_level_stats h in
         record_level_counters telemetry ~configs stats_list;
         level_rows_of_stats ~registry:cap.registry cap.instance ~base ~configs
           stats_list)
       bases hierarchies)

let run_all_levels ?jobs ?(telemetry = Telemetry.null) ?store ?workloads
    ~levels () =
  let rows =
    sweep ?jobs ~telemetry ?store ?workloads
      (capture_level_rows ~telemetry ~levels)
  in
  if Telemetry.enabled telemetry then
    Telemetry.set_gauge telemetry "hierarchy/levels" (float_of_int levels);
  finalize_metrics telemetry;
  rows

let to_level_table rows =
  let t =
    Table.create
      ~title:
        "Per-level hierarchy traffic: accesses, misses and writebacks by \
         cache level"
      [
        ("kernel", Table.Left); ("cache", Table.Left); ("level", Table.Left);
        ("structure", Table.Left); ("accesses", Table.Right);
        ("misses", Table.Right); ("writebacks", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.l_workload; r.base_cache.Cachesim.Config.name;
          Printf.sprintf "L%d" r.level; r.l_structure;
          Table.cell_float r.accesses; Table.cell_float r.misses;
          Table.cell_float r.l_writebacks;
        ])
    rows;
  t

(* --- time-weighted rows: residency-based vulnerability per level ---

   The classic rows weight vulnerability by access counts (the paper's
   N_ha); these weight it by *residency time* — how long each
   structure's lines actually sit in a level, clean or dirty, on the
   logical event clock (Jaulmes et al.'s delayed-error-reporting
   argument).  The replay attaches a [Cachesim.Residency.t] to every
   level, the clock is the tape's event ordinal, and the horizon is the
   tape length, so every integral is an exact integer. *)

type time_row = {
  t_workload : string;
  t_base : Cachesim.Config.t;
  t_level : int; (* 1-based *)
  t_cache : Cachesim.Config.t;
  t_structure : string;
  t_horizon : int;   (* run length in events (tape length) *)
  t_bins : int;
  clean_time : float;   (* line-events resident and clean *)
  dirty_time : float;   (* line-events resident and dirty *)
  t_fills : float;
  t_evictions : float;
  t_flushes : float;
  window : float array;        (* clean+dirty residency per time bin *)
  window_dirty : float array;  (* dirty share of each bin *)
}

let time_row =
  Row.make "time row"
    Row.[
      field "workload" Str (fun r -> r.t_workload);
      field "base_cache" (Row Cachesim.Config.row) (fun r -> r.t_base);
      field "level" Int (fun r -> r.t_level);
      field "level_cache" (Row Cachesim.Config.row) (fun r -> r.t_cache);
      field "structure" Str (fun r -> r.t_structure);
      field "horizon" Int (fun r -> r.t_horizon);
      field "bins" Int (fun r -> r.t_bins);
      field "clean_time" Float (fun r -> r.clean_time);
      field "dirty_time" Float (fun r -> r.dirty_time);
      field "fills" Float (fun r -> r.t_fills);
      field "evictions" Float (fun r -> r.t_evictions);
      field "flushes" Float (fun r -> r.t_flushes);
      field "window" Floats (fun r -> r.window);
      field "window_dirty" Floats (fun r -> r.window_dirty);
    ]
    (fun t_workload t_base t_level t_cache t_structure t_horizon t_bins
         clean_time dirty_time t_fills t_evictions t_flushes window
         window_dirty ->
      { t_workload; t_base; t_level; t_cache; t_structure; t_horizon; t_bins;
        clean_time; dirty_time; t_fills; t_evictions; t_flushes; window;
        window_dirty })

(* Exposure in bit-events: every resident bit of the structure's lines,
   integrated over logical time.  This is the time-weighted analogue of
   the paper's DVF kernel (bits x main-memory accesses); the FIT-rate
   and execution-time factors scale every structure alike, so rankings
   — and the Spearman correlation `dvf windows` reports — are
   unaffected by omitting them here. *)
let tw_dvf r =
  float_of_int (8 * r.t_cache.Cachesim.Config.line)
  *. (r.clean_time +. r.dirty_time)

let time_rows_of_snaps ~registry (instance : Workload.instance) ~base ~configs
    snaps =
  List.concat
    (List.mapi
       (fun li (config, snap) ->
         List.map
           (fun (r : Memtrace.Region.region) ->
             let c =
               Cachesim.Residency.Snapshot.owner snap r.Memtrace.Region.id
             in
             {
               t_workload = instance.Workload.workload;
               t_base = base;
               t_level = li + 1;
               t_cache = config;
               t_structure = r.Memtrace.Region.name;
               t_horizon = Cachesim.Residency.Snapshot.horizon snap;
               t_bins = Cachesim.Residency.Snapshot.bins snap;
               clean_time =
                 float_of_int c.Cachesim.Residency.clean_time;
               dirty_time =
                 float_of_int c.Cachesim.Residency.dirty_time;
               t_fills = float_of_int c.Cachesim.Residency.fills;
               t_evictions = float_of_int c.Cachesim.Residency.evictions;
               t_flushes = float_of_int c.Cachesim.Residency.flushes;
               window =
                 Array.map float_of_int
                   (Cachesim.Residency.Snapshot.resident_bins c);
               window_dirty =
                 Array.map float_of_int c.Cachesim.Residency.dirty_bins;
             })
           (Memtrace.Region.regions registry))
       (List.combine configs snaps))

let record_residency_counters telemetry snaps =
  if Telemetry.enabled telemetry then
    List.iter
      (fun snap ->
        let tot = Cachesim.Residency.Snapshot.totals snap in
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.clean_time
          "residency/clean_line_events";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.dirty_time
          "residency/dirty_line_events";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.fills
          "residency/fills";
        Telemetry.add telemetry ~n:tot.Cachesim.Residency.evictions
          "residency/evictions")
      snaps

(* One timed walk of a capture: every hierarchy geometry in
   [configs_list] gets one accumulator per level, one fused walk of the
   tape drives them all, then each hierarchy's clock is pinned to the
   horizon and it is flushed (closing every surviving line's phase at
   the horizon).  Returns one snapshot per level, per geometry. *)
let timed_snapshots ~telemetry ~bins configs_list cap =
  if bins <= 0 then
    invalid_arg "Verify.timed_level_snapshots: bins must be positive";
  let horizon = Memtrace.Tape.length cap.tape in
  let t0 = Telemetry.now_ns telemetry in
  let timed =
    List.map
      (fun configs ->
        let h = Cachesim.Hierarchy.create configs in
        let res =
          List.map
            (fun _ -> Cachesim.Residency.create ~bins ~horizon ())
            configs
        in
        Cachesim.Hierarchy.attach_residency h (Array.of_list res);
        (h, res))
      configs_list
  in
  Memtrace.Tape.replay_hierarchies cap.tape
    (Array.of_list (List.map fst timed));
  let snaps =
    List.map
      (fun (h, res) ->
        Cachesim.Hierarchy.set_now h horizon;
        Cachesim.Hierarchy.flush h;
        List.map Cachesim.Residency.snapshot res)
      timed
  in
  if Telemetry.enabled telemetry then begin
    Telemetry.add telemetry
      ~n:(List.length configs_list * horizon)
      "tape/timed_replay_events";
    Telemetry.time_ns telemetry "verify/timed_total"
      (Int64.sub (Telemetry.now_ns telemetry) t0)
  end;
  List.iter (record_residency_counters telemetry) snaps;
  snaps

let timed_level_snapshots ?(telemetry = Telemetry.null)
    ?(bins = Cachesim.Residency.default_bins) ~configs cap =
  List.hd (timed_snapshots ~telemetry ~bins [ configs ] cap)

(* One capture's time-weighted rows over every verification base
   geometry — the per-workload unit of work in [run_all_timed] and the
   whole job for a [Serve] timed request. *)
let capture_time_rows ?(telemetry = Telemetry.null)
    ?(bins = Cachesim.Residency.default_bins) ~levels cap =
  let bases = Cachesim.Config.verification_set in
  let configs_list =
    List.map (fun base -> Cachesim.Config.hierarchy_of ~levels base) bases
  in
  List.concat
    (List.map2
       (fun (base, configs) snaps ->
         time_rows_of_snaps ~registry:cap.registry cap.instance ~base ~configs
           snaps)
       (List.combine bases configs_list)
       (timed_snapshots ~telemetry ~bins configs_list cap))

let run_all_timed ?jobs ?(telemetry = Telemetry.null) ?store ?workloads
    ?(levels = 1) ?(bins = Cachesim.Residency.default_bins) () =
  let rows =
    sweep ?jobs ~telemetry ?store ?workloads
      (capture_time_rows ~telemetry ~bins ~levels)
  in
  if Telemetry.enabled telemetry then
    Telemetry.set_gauge telemetry "residency/bins" (float_of_int bins);
  finalize_metrics telemetry;
  rows

let to_time_table rows =
  let t =
    Table.create
      ~title:
        "Time-weighted vulnerability: per-structure residency (line-events) \
         by cache level"
      [
        ("kernel", Table.Left); ("cache", Table.Left); ("level", Table.Left);
        ("structure", Table.Left); ("clean", Table.Right);
        ("dirty", Table.Right); ("avg lines", Table.Right);
        ("dirty %", Table.Right); ("tw-DVF", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let resident = r.clean_time +. r.dirty_time in
      let avg =
        if r.t_horizon = 0 then 0.0 else resident /. float_of_int r.t_horizon
      in
      let dirty_pct =
        if resident = 0.0 then 0.0 else 100.0 *. r.dirty_time /. resident
      in
      Table.add_row t
        [
          r.t_workload; r.t_base.Cachesim.Config.name;
          Printf.sprintf "L%d" r.t_level; r.t_structure;
          Table.cell_float r.clean_time; Table.cell_float r.dirty_time;
          Printf.sprintf "%.2f" avg;
          Printf.sprintf "%.1f" dirty_pct;
          Printf.sprintf "%.4g" (tw_dvf r);
        ])
    rows;
  t

let workload_error ~rows workload cache =
  let relevant =
    List.filter
      (fun r -> r.workload = workload && r.cache.Cachesim.Config.name = cache.Cachesim.Config.name)
      rows
  in
  if relevant = [] then invalid_arg "Verify.workload_error: no rows";
  let total_sim = List.fold_left (fun acc r -> acc +. r.simulated) 0.0 relevant in
  let total_model = List.fold_left (fun acc r -> acc +. r.modeled) 0.0 relevant in
  Dvf_util.Maths.rel_error ~expected:total_sim ~actual:total_model

let to_table rows =
  let t =
    Table.create
      ~title:
        "Fig. 4 - Model verification: estimated vs simulated main-memory \
         accesses"
      [
        ("kernel", Table.Left); ("cache", Table.Left);
        ("structure", Table.Left); ("simulated", Table.Right);
        ("modeled", Table.Right); ("error %", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.workload; r.cache.Cachesim.Config.name; r.structure;
          Table.cell_float r.simulated; Table.cell_float r.modeled;
          Printf.sprintf "%.1f" (100.0 *. error r);
        ])
    rows;
  t
