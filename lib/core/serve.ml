(* The query engine behind [dvf serve] and [dvf query]: hold every
   workload's capture in memory (warmed once, optionally through a
   persistent tape store) and answer line-JSON requests against it.
   This module is protocol and computation only — no sockets, no
   stdin/stdout; the transport loop lives in the CLI, which feeds
   [handle_line]/[handle_batch] raw request lines and writes back the
   raw response lines they return. *)

module Telemetry = Dvf_util.Telemetry
module Json = Dvf_util.Json
module Row = Dvf_util.Row

let schema = "dvf-query"
let schema_version = 1

type t = {
  telemetry : Telemetry.t;
  store : Memtrace.Tape_store.t option;
  pool : Dvf_util.Parallel.Pool.t;
  workloads : Workload.t list;
  (* Both caches are keyed by lowercase registry name and guarded by
     [mutex]; request handlers run on pool domains. *)
  captures : (string, Verify.capture) Hashtbl.t;
  profiling : (string, Workload.instance) Hashtbl.t;
  mutex : Mutex.t;
  mutable requests : int;
}

let create ?(telemetry = Telemetry.null) ?store ?jobs ?workloads () =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.all ()
  in
  {
    telemetry;
    store;
    pool = Dvf_util.Parallel.Pool.create ~telemetry ?jobs ();
    workloads;
    captures = Hashtbl.create 16;
    profiling = Hashtbl.create 16;
    mutex = Mutex.create ();
    requests = 0;
  }

let shutdown t = Dvf_util.Parallel.Pool.shutdown t.pool
let workload_names t = List.map (fun w -> w.Workload.name) t.workloads

let find_workload t name =
  let key = String.lowercase_ascii name in
  match
    List.find_opt
      (fun w -> String.lowercase_ascii w.Workload.name = key)
      t.workloads
  with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (serving: %s)" name
           (String.concat ", " (workload_names t)))

(* Request handlers run with [jobs = 1] — a handler must never fan work
   back onto [t.pool] (the pool's own domains would deadlock waiting on
   themselves); concurrency comes from [handle_batch] spreading whole
   requests across the pool instead. *)
let capture_for t (w : Workload.t) =
  let key = String.lowercase_ascii w.Workload.name in
  match
    Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.captures key)
  with
  | Some cap -> cap
  | None ->
      let cap =
        Verify.capture ~telemetry:t.telemetry ?store:t.store
          (Workloads.verification_instance w)
      in
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.captures key with
          | Some cap -> cap (* a concurrent request won the race *)
          | None ->
              Hashtbl.replace t.captures key cap;
              cap)

let profiling_instance_for t (w : Workload.t) =
  let key = String.lowercase_ascii w.Workload.name in
  match
    Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.profiling key)
  with
  | Some inst -> inst
  | None ->
      let inst = Workloads.profiling_instance w in
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.profiling key with
          | Some inst -> inst
          | None ->
              Hashtbl.replace t.profiling key inst;
              inst)

let warm t =
  Telemetry.span t.telemetry "serve/warm" @@ fun () ->
  ignore (Dvf_util.Parallel.Pool.map_list t.pool (capture_for t) t.workloads)

let warm_count t =
  Mutex.protect t.mutex (fun () -> Hashtbl.length t.captures)

(* {2 Row encoders}

   By name, for the codec probe in perfbench/layers.ml. *)

let verify_row_to_json = Row.to_json Verify.row
let level_row_to_json = Row.to_json Verify.level_row
let time_row_to_json = Row.to_json Verify.time_row
let profile_row_to_json = Row.to_json Profile.row
let sweep_row_to_json = Row.to_json Experiments.sweep_row

(* {2 Tape file inspection}

   The payload behind [dvf tape info]: the on-disk header and
   provenance of a tape file.  The JSON line round-trips exactly
   through [tape_info], and the rendered table is byte-stable for CI
   comparison. *)

type tape_info = {
  ti_version : int;
  ti_workload : string;
  ti_size : string;
  ti_seed : int;
  ti_chunk_events : int;
  ti_events : int;
  ti_chunks : int;
  ti_regions : int;
}

let tape_info_of_file path =
  match Memtrace.Tape_io.read_version path with
  | Error e -> Error e
  | Ok version -> (
      match Memtrace.Tape_io.load path with
      | Error e -> Error e
      | Ok (meta, registry, tape) ->
          Ok
            {
              ti_version = version;
              ti_workload = meta.Memtrace.Tape_io.workload;
              ti_size = meta.Memtrace.Tape_io.size;
              ti_seed = meta.Memtrace.Tape_io.seed;
              ti_chunk_events = Memtrace.Tape.chunk_events tape;
              ti_events = Memtrace.Tape.length tape;
              ti_chunks = Memtrace.Tape.chunk_count tape;
              ti_regions = List.length (Memtrace.Region.regions registry);
            })

let tape_info =
  Row.make "tape info"
    Row.[
      field "version" Int (fun i -> i.ti_version);
      field "workload" Str (fun i -> i.ti_workload);
      field "size" Str (fun i -> i.ti_size);
      field "seed" Int (fun i -> i.ti_seed);
      field "chunk_events" Int (fun i -> i.ti_chunk_events);
      field "events" Int (fun i -> i.ti_events);
      field "chunks" Int (fun i -> i.ti_chunks);
      field "regions" Int (fun i -> i.ti_regions);
    ]
    (fun ti_version ti_workload ti_size ti_seed ti_chunk_events ti_events
         ti_chunks ti_regions ->
      { ti_version; ti_workload; ti_size; ti_seed; ti_chunk_events; ti_events;
        ti_chunks; ti_regions })

let tape_info_table i =
  let t =
    Dvf_util.Table.create ~title:"Tape file: header"
      [ ("field", Dvf_util.Table.Left); ("value", Dvf_util.Table.Right) ]
  in
  List.iter
    (fun (k, v) -> Dvf_util.Table.add_row t [ k; v ])
    [
      ("format version", string_of_int i.ti_version);
      ("workload", i.ti_workload);
      ("size", i.ti_size);
      ("seed", string_of_int i.ti_seed);
      ("chunk capacity (events)", string_of_int i.ti_chunk_events);
      ("events", string_of_int i.ti_events);
      ("chunks", string_of_int i.ti_chunks);
      ("regions", string_of_int i.ti_regions);
    ];
  t

(* {2 Request dispatch} *)

(* An optional request parameter: absent and [null] are both [None]. *)
let param req key decode =
  match Json.member key req with
  | None | Some Json.Null -> None
  | Some v -> (
      try Some (decode v)
      with Failure msg -> failwith (Printf.sprintf "%S: %s" key msg))

let workload_param req = param req "workload" (Row.decode Str)

let rows_result decl rows =
  Json.Obj [ ("rows", Json.List (List.map (Row.to_json decl) rows)) ]

(* [rows_of] each requested workload (default: every served one). *)
let per_workload t req decl rows_of =
  let ws =
    match workload_param req with
    | None -> t.workloads
    | Some name -> [ find_workload t name ]
  in
  rows_result decl (List.concat_map rows_of ws)

let op_verify t req =
  let caches = Cachesim.Config.verification_set in
  per_workload t req Verify.row (fun w ->
      Verify.replay_capture_fused ~telemetry:t.telemetry ~caches
        (capture_for t w))

let op_levels t req =
  let levels = Option.value (param req "levels" (Row.decode Int)) ~default:2 in
  per_workload t req Verify.level_row (fun w ->
      Verify.capture_level_rows ~telemetry:t.telemetry ~levels (capture_for t w))

let op_timed t req =
  let levels = Option.value (param req "levels" (Row.decode Int)) ~default:1 in
  let bins =
    Option.value (param req "bins" (Row.decode Int))
      ~default:Cachesim.Residency.default_bins
  in
  per_workload t req Verify.time_row (fun w ->
      Verify.capture_time_rows ~telemetry:t.telemetry ~levels ~bins
        (capture_for t w))

let op_dvf t req =
  per_workload t req Profile.row (fun w ->
      let instance = profiling_instance_for t w in
      List.concat_map
        (fun cache -> Profile.profile_instance ~cache instance)
        Cachesim.Config.profiling_set)

let op_sweep t req =
  let w =
    match workload_param req with
    | Some name -> find_workload t name
    | None -> failwith "this op requires a \"workload\" field"
  in
  let capacities =
    param req "capacities" (function
      | Json.List vs -> List.map (Row.decode Int) vs
      | _ -> failwith "expected a list of integers")
  in
  let simulate =
    match Json.member "simulate" req with
    | None -> true
    | Some (Json.Bool b) -> b
    | Some _ -> failwith "\"simulate\" must be a boolean"
  in
  let capture = capture_for t w in
  rows_result Experiments.sweep_row
    (Experiments.cache_sweep ~jobs:1 ~telemetry:t.telemetry ?capacities
       ~simulate ~capture capture.Verify.instance)

(* Chaos runs take any workload with a topology: a served one, or a
   built-in service workload registered on demand — so the op works
   against a default server (which serves only the auto-registered
   kernels) without changing any other op's workload set. *)
let op_chaos t req =
  let w =
    match workload_param req with
    | None -> Service_workloads.workload ()
    | Some name -> (
        try find_workload t name
        with Failure _ as unknown -> (
          match Service_workloads.find name with
          | Some w -> w
          | None -> raise unknown))
  in
  match
    Chaos.run
      ?seed:(param req "seed" (Row.decode Int))
      ?trials:(param req "trials" (Row.decode Int))
      ?kill_fraction:(param req "kill_fraction" (Row.decode Float))
      ~telemetry:t.telemetry w
  with
  | Some report -> Row.to_json Chaos.report report
  | None ->
      failwith
        (Printf.sprintf "workload %S has no service-graph topology"
           w.Workload.name)

let op_stats t =
  Json.Obj
    [
      ("requests", Json.Int (Mutex.protect t.mutex (fun () -> t.requests)));
      ("workloads", Json.Int (List.length t.workloads));
      ("warm_captures", Json.Int (warm_count t));
      ( "store",
        match t.store with
        | Some s -> Json.Str (Memtrace.Tape_store.dir s)
        | None -> Json.Null );
    ]

let ops =
  [
    "ping"; "workloads"; "verify"; "levels"; "timed"; "dvf"; "sweep"; "chaos";
    "stats";
  ]

let dispatch t ~op req =
  match op with
  | "ping" -> Json.Obj [ ("pong", Json.Bool true) ]
  | "workloads" ->
      Json.Obj
        [
          ( "workloads",
            Json.List (List.map (fun n -> Json.Str n) (workload_names t)) );
        ]
  | "verify" -> op_verify t req
  | "levels" -> op_levels t req
  | "timed" -> op_timed t req
  | "dvf" -> op_dvf t req
  | "sweep" -> op_sweep t req
  | "chaos" -> op_chaos t req
  | "stats" -> op_stats t
  | other ->
      failwith
        (Printf.sprintf "unknown op %S (supported: %s)" other
           (String.concat ", " ops))

let envelope ~id fields =
  Json.to_string ~indent:false
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("schema_version", Json.Int schema_version);
          ("id", id);
        ]
       @ fields))

let ok_response ~id result =
  envelope ~id [ ("ok", Json.Bool true); ("result", result) ]

let error_response ~id msg =
  envelope ~id [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let handle_request t req =
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  match Json.member "op" req with
  | Some (Json.Str op) -> (
      Mutex.protect t.mutex (fun () -> t.requests <- t.requests + 1);
      Telemetry.add t.telemetry "serve/requests";
      match
        Telemetry.span t.telemetry ("serve/op/" ^ op) (fun () ->
            dispatch t ~op req)
      with
      | result -> ok_response ~id result
      | exception Failure msg -> error_response ~id msg
      | exception Invalid_argument msg -> error_response ~id msg
      | exception Not_found -> error_response ~id "not found")
  | Some _ -> error_response ~id "\"op\" must be a string"
  | None -> error_response ~id "request has no \"op\" field"

let handle_line t line =
  match Json.parse_line line with
  | Ok None -> None (* blank keep-alive line: no response *)
  | Ok (Some req) -> Some (handle_request t req)
  | Error msg -> Some (error_response ~id:Json.Null msg)

(* Order-preserving: response [i] answers request line [i] (blank lines
   produce no response).  Requests run concurrently on the pool — each
   handler is internally serial, so no handler re-enters the pool. *)
let handle_batch t lines =
  List.filter_map Fun.id
    (Dvf_util.Parallel.Pool.map_list t.pool (handle_line t) lines)
