(* In-process pass behind the benchmark's per-layer metrics.

   One pass runs one op of each benchmark workload: the Fig. 4 verify op
   (serially), the Fig. 5 op, and one round of serve requests against
   captures loaded from a filled tape store.  Each op is assembled here
   from the public entry points of the layers, so that a span can sit
   around every call into a layer without touching the library; the
   outputs are written out and compared byte for byte against the
   references by run.py, which proves the assembly does the same work
   as [dvf verify], [dvf fig5] and [dvf serve].

   Usage:
     layers.exe --version
     layers.exe --trace 0|1 --store DIR --requests FILE --out DIR

   --trace 1 records spans (name, tag, op id, parent, start, end and the
   counts taken at the same call) in memory and writes them to
   DIR/spans.jsonl when the pass ends.  --trace 0 runs the identical
   code with every span a plain call, which gives the untraced wall time
   the tracing overhead is measured against, and also times the
   in-process [Serve.handle_line] of a ping for the transport metric.
   Both modes write DIR/verify.txt, DIR/fig5.txt, DIR/serve.jsonl and
   DIR/result.json. *)

module Json = Dvf_util.Json
module Table = Dvf_util.Table
module Verify = Core.Verify
module Snapshot = Cachesim.Stats.Snapshot

let now_ns () = Monotonic_clock.now ()

(* --- tracer --- *)

type span = {
  id : int;
  mutable name : string;
  tag : string;
  op : int;
  parent : int;
  start : int64;
  mutable stop : int64;
  mutable counts : (string * int) list;
}

let tracing = ref false
let finished : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let current_op = ref 0
let new_op () = incr current_op

let span ?(tag = "") name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; tag; op = !current_op; parent;
        start = now_ns (); stop = 0L; counts = [] }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now_ns ();
        open_spans := List.tl !open_spans;
        finished := s :: !finished)
  end

(* Attach a count to the innermost open span. *)
let count name n =
  match !open_spans with
  | s :: _ when !tracing -> s.counts <- (name, n) :: s.counts
  | _ -> ()

(* A serve request's span learns its op name only after parsing. *)
let rename name =
  match !open_spans with
  | s :: _ when !tracing -> s.name <- name
  | _ -> ()

let span_to_json s =
  Json.Obj
    [
      ("id", Json.Int s.id); ("name", Json.Str s.name);
      ("tag", Json.Str s.tag); ("op", Json.Int s.op);
      ("parent", Json.Int s.parent);
      ("start_ns", Json.Int (Int64.to_int s.start));
      ("end_ns", Json.Int (Int64.to_int s.stop));
      ("counts", Json.Obj (List.rev_map (fun (k, n) -> (k, Json.Int n)) s.counts));
    ]

(* --- model layer --- *)

(* Garbage-collector counts around each model call: the template models
   are what drive the heap of [dvf fig5] to its peak. *)
let model ~tag f =
  span ~tag "model" (fun () ->
      let before = (Gc.quick_stat ()).Gc.major_collections in
      let result = f () in
      let after = Gc.quick_stat () in
      count "major_collections" (after.Gc.major_collections - before);
      count "top_heap_words" after.Gc.top_heap_words;
      result)

(* Fig. 4 rows of one simulated cache, as [Verify] pairs them. *)
let model_rows ~cache (cap : Verify.capture) snapshot =
  let inst = cap.Verify.instance in
  let modeled =
    model ~tag:inst.Core.Workload.workload (fun () ->
        Access_patterns.App_spec.main_memory_accesses ~cache
          inst.Core.Workload.spec)
  in
  List.map
    (fun (structure, modeled) ->
      let region = Memtrace.Region.lookup cap.Verify.registry structure in
      {
        Verify.workload = inst.Core.Workload.workload;
        cache;
        structure;
        simulated =
          float_of_int
            (Snapshot.owner_main_memory snapshot region.Memtrace.Region.id);
        modeled;
      })
    modeled

(* --- the verify op: [dvf verify] with the replay strategy, serially --- *)

let simulate (cap : Verify.capture) cache =
  span ~tag:cap.Verify.instance.Core.Workload.workload "simulate" (fun () ->
      let sim = Cachesim.Cache.create cache in
      Memtrace.Tape.replay cap.Verify.tape sim;
      Cachesim.Cache.flush sim;
      let snapshot = Cachesim.Stats.snapshot (Cachesim.Cache.stats sim) in
      let totals = Snapshot.totals snapshot in
      count "events" (Memtrace.Tape.length cap.Verify.tape);
      count "misses" totals.Cachesim.Stats.misses;
      count "writebacks" totals.Cachesim.Stats.writebacks;
      snapshot)

let verify_op () =
  span "op.verify" @@ fun () ->
  let rows =
    List.concat_map
      (fun (w : Core.Workload.t) ->
        let tag = w.Core.Workload.name in
        let inst =
          span ~tag "instance" (fun () ->
              Core.Workloads.verification_instance w)
        in
        let cap =
          span ~tag "capture" (fun () ->
              let cap = Verify.capture inst in
              count "events" (Memtrace.Tape.length cap.Verify.tape);
              cap)
        in
        List.concat_map
          (fun cache -> model_rows ~cache cap (simulate cap cache))
          Cachesim.Config.verification_set)
      (Core.Workloads.all ())
  in
  span "render" (fun () -> Table.render (Verify.to_table rows) ^ "\n")

(* --- the fig5 op: [dvf fig5] --- *)

let fig5_op () =
  span "op.fig5" @@ fun () ->
  let rows =
    List.concat_map
      (fun (w : Core.Workload.t) ->
        let tag = w.Core.Workload.name in
        let inst =
          span ~tag "instance" (fun () -> Core.Workloads.profiling_instance w)
        in
        List.concat_map
          (fun cache ->
            model ~tag (fun () -> Core.Profile.profile_instance ~cache inst))
          Cachesim.Config.profiling_set)
      (Core.Workloads.all ())
  in
  span "render" (fun () -> Table.render (Core.Profile.to_table rows) ^ "\n")

(* --- the serve round: [dvf serve] request handling, one at a time --- *)

let string_field req k =
  match Json.member k req with
  | Some (Json.Str s) -> s
  | _ -> failwith (Printf.sprintf "request has no string %S field" k)

let parse line =
  match Json.parse_line line with
  | Ok (Some req) -> req
  | Ok None -> failwith "blank request line"
  | Error msg -> failwith msg

let key name = String.lowercase_ascii name

(* Warm state of a daemon: every verification capture loaded from the
   store, and the profiling instances the requests will ask for. *)
let serve_setup ~store ~requests =
  span "op.serve.setup" @@ fun () ->
  let captures =
    List.map
      (fun (w : Core.Workload.t) ->
        let tag = w.Core.Workload.name in
        let inst =
          span ~tag "instance" (fun () ->
              Core.Workloads.verification_instance w)
        in
        let store_key = Verify.store_key inst in
        let registry, tape =
          span ~tag "load" (fun () ->
              match Memtrace.Tape_store.find store store_key with
              | Some found ->
                  count "bytes"
                    (Unix.stat (Memtrace.Tape_store.path store store_key))
                      .Unix.st_size;
                  found
              | None -> failwith ("tape store has no entry for " ^ tag))
        in
        (key tag, { Verify.instance = inst; registry; tape }))
      (Core.Workloads.all ())
  in
  let dvf_workloads =
    List.sort_uniq compare
      (List.filter_map
         (fun line ->
           let req = parse line in
           if string_field req "op" = "dvf" then
             Some (key (string_field req "workload"))
           else None)
         requests)
  in
  let profiling =
    List.map
      (fun name ->
        let w = Core.Workloads.of_name name in
        ( name,
          span ~tag:w.Core.Workload.name "instance" (fun () ->
              Core.Workloads.profiling_instance w) ))
      dvf_workloads
  in
  (captures, profiling)

let rows to_json rows = Json.Obj [ ("rows", Json.List (List.map to_json rows)) ]

let handle ~captures ~profiling line =
  span "serve" @@ fun () ->
  let req = span "protocol" (fun () -> parse line) in
  let op = string_field req "op" in
  let tag = string_field req "workload" in
  let workload = key tag in
  rename ("serve." ^ op);
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  let cap () = List.assoc workload captures in
  (* Each op computes its rows, then hands back the encoder the codec
     span runs. *)
  let encode =
    match op with
    | "verify" ->
        let cap = cap () in
        let caches = Cachesim.Config.verification_set in
        let snapshots =
          span ~tag "simulate.fused" (fun () ->
              let sims =
                Array.of_list (List.map Cachesim.Cache.create caches)
              in
              Memtrace.Tape.replay_fused cap.Verify.tape sims;
              Array.iter Cachesim.Cache.flush sims;
              Array.map
                (fun sim -> Cachesim.Stats.snapshot (Cachesim.Cache.stats sim))
                sims)
        in
        let rs =
          List.concat
            (List.mapi
               (fun i cache -> model_rows ~cache cap snapshots.(i))
               caches)
        in
        fun () -> rows Core.Serve.verify_row_to_json rs
    | "levels" ->
        let rs =
          span ~tag "simulate.hierarchy" (fun () ->
              Verify.capture_level_rows ~levels:2 (cap ()))
        in
        fun () -> rows Core.Serve.level_row_to_json rs
    | "timed" ->
        let rs =
          span ~tag "simulate.timed" (fun () ->
              Verify.capture_time_rows ~levels:1
                ~bins:Cachesim.Residency.default_bins (cap ()))
        in
        fun () -> rows Core.Serve.time_row_to_json rs
    | "dvf" ->
        let inst = List.assoc workload profiling in
        let rs =
          List.concat_map
            (fun cache ->
              model ~tag:inst.Core.Workload.workload (fun () ->
                  Core.Profile.profile_instance ~cache inst))
            Cachesim.Config.profiling_set
        in
        fun () -> rows Core.Serve.profile_row_to_json rs
    | "sweep" ->
        let cap = cap () in
        let rs =
          Core.Experiments.cache_sweep ~jobs:1 ~simulate:true ~capture:cap
            cap.Verify.instance
        in
        fun () -> rows Core.Serve.sweep_row_to_json rs
    | other -> failwith ("the benchmark mix has no op " ^ other)
  in
  span "codec" (fun () ->
      Json.to_string ~indent:false
        (Json.Obj
           [
             ("schema", Json.Str Core.Serve.schema);
             ("schema_version", Json.Int Core.Serve.schema_version);
             ("id", id);
             ("ok", Json.Bool true);
             ("result", encode ());
           ]))

(* Median in-process latency of [Serve.handle_line] on a ping: the
   daemon's request handling with no computation behind it. *)
let ping_ns () =
  let srv = Core.Serve.create ~jobs:1 ~workloads:[] () in
  Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv) @@ fun () ->
  let line = {|{"id":0,"op":"ping"}|} in
  let samples =
    Array.init 201 (fun _ ->
        let t0 = now_ns () in
        ignore (Core.Serve.handle_line srv line);
        Int64.sub (now_ns ()) t0)
  in
  Array.sort compare samples;
  samples.(100)

(* --- driver --- *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let write path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let timed f =
  let t0 = now_ns () in
  let result = f () in
  (result, Int64.sub (now_ns ()) t0)

let usage () =
  prerr_endline
    "usage: layers.exe --version\n\
    \       layers.exe --trace 0|1 --store DIR --requests FILE --out DIR";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--version" ] -> print_endline Sys.ocaml_version
  | [ _; "--trace"; trace; "--store"; store_dir; "--requests"; requests;
      "--out"; out ] ->
      if trace <> "0" && trace <> "1" then usage ();
      tracing := trace = "1";
      let store = Memtrace.Tape_store.create ~dir:store_dir () in
      let requests = read_lines requests in
      let path name = Filename.concat out name in
      new_op ();
      let verify_txt, verify_ns = timed verify_op in
      new_op ();
      let fig5_txt, fig5_ns = timed fig5_op in
      let responses, serve_ns =
        timed (fun () ->
            new_op ();
            let captures, profiling = serve_setup ~store ~requests in
            List.map
              (fun line ->
                new_op ();
                handle ~captures ~profiling line)
              requests)
      in
      write (path "verify.txt") verify_txt;
      write (path "fig5.txt") fig5_txt;
      write (path "serve.jsonl") (String.concat "\n" responses ^ "\n");
      if !tracing then
        write (path "spans.jsonl")
          (String.concat "\n"
             (List.rev_map
                (fun s -> Json.to_string ~indent:false (span_to_json s))
                !finished)
          ^ "\n");
      let ping =
        if !tracing then [] else [ ("ping_ns", Json.Int (Int64.to_int (ping_ns ()))) ]
      in
      write (path "result.json")
        (Json.to_string
           (Json.Obj
              ([
                 ("ocaml", Json.Str Sys.ocaml_version);
                 ("traced", Json.Bool !tracing);
                 ( "wall_ns",
                   Json.Obj
                     [
                       ("verify", Json.Int (Int64.to_int verify_ns));
                       ("fig5", Json.Int (Int64.to_int fig5_ns));
                       ("serve", Json.Int (Int64.to_int serve_ns));
                     ] );
               ]
              @ ping)))
  | _ -> usage ()
