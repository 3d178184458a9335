module P = Dvf_util.Parallel

let test_empty_input () =
  Alcotest.(check (list int)) "map_list []" [] (P.map_list ~jobs:4 Fun.id []);
  Alcotest.(check int) "map [||]" 0 (Array.length (P.map ~jobs:4 Fun.id [||]))

let test_order_preserved_jobs_gt_items () =
  let out = P.map_list ~jobs:8 (fun x -> x * x) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "squares" [ 1; 4; 9 ] out

let test_order_preserved_items_gt_jobs () =
  let xs = List.init 100 Fun.id in
  let out = P.map_list ~jobs:3 (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "doubles in order" (List.map (fun x -> 2 * x) xs)
    out

let test_jobs_one_is_serial () =
  (* jobs = 1 must not spawn domains: side effects happen in the calling
     domain, in order. *)
  let self = Domain.self () in
  let trace = ref [] in
  let out =
    P.map_list ~jobs:1
      (fun x ->
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        trace := x :: !trace;
        x + 1)
      [ 10; 20; 30 ]
  in
  Alcotest.(check (list int)) "results" [ 11; 21; 31 ] out;
  Alcotest.(check (list int)) "in-order effects" [ 10; 20; 30 ]
    (List.rev !trace)

let test_exception_propagation () =
  let completed = Atomic.make 0 in
  let run () =
    P.map_list ~jobs:4
      (fun x ->
        if x = 3 then failwith "job 3 exploded";
        Atomic.incr completed;
        x)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  (match run () with
  | _ -> Alcotest.fail "expected the job's exception"
  | exception Failure m -> Alcotest.(check string) "message" "job 3 exploded" m);
  (* All other jobs still ran to completion before the re-raise. *)
  Alcotest.(check int) "other jobs completed" 7 (Atomic.get completed)

let test_first_failure_in_input_order () =
  (* Two failing jobs: the one earliest in the input is re-raised no
     matter which worker finishes first. *)
  match
    P.map_list ~jobs:4
      (fun x -> if x >= 5 then failwith (Printf.sprintf "boom %d" x) else x)
      [ 0; 5; 1; 6 ]
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "earliest job" "boom 5" m

let test_pool_reuse_and_shutdown () =
  let pool = P.Pool.create ~jobs:3 () in
  Alcotest.(check int) "size" 3 (P.Pool.size pool);
  let a = P.Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3 ] in
  let b = P.Pool.map_list pool string_of_int [ 7; 8 ] in
  Alcotest.(check (list int)) "first map" [ 2; 3; 4 ] a;
  Alcotest.(check (list string)) "second map" [ "7"; "8" ] b;
  P.Pool.shutdown pool;
  match P.Pool.map_list pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_create_rejects_nonpositive_jobs () =
  match P.Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs:0 must raise"
  | exception Invalid_argument _ -> ()

let test_with_pool_shuts_down_on_exception () =
  (* The worker domains must be joined even when the callback raises;
     if they weren't, the runtime would abort at exit with live domains. *)
  (match P.with_pool ~jobs:2 (fun _ -> failwith "escape") with
  | () -> Alcotest.fail "expected escape"
  | exception Failure m -> Alcotest.(check string) "escaped" "escape" m);
  Alcotest.(check pass) "pool cleaned up" () ()

(* The headline contract: a parallel verification sweep returns exactly
   the serial sweep's rows — same values (floats compared exactly), same
   order.  VM and MC are the two cheapest kernels. *)
let test_verify_run_all_deterministic () =
  let workloads = [ Core.Workloads.vm; Core.Workloads.mc ] in
  let serial = Core.Verify.run_all ~jobs:1 ~workloads () in
  let parallel = Core.Verify.run_all ~jobs:4 ~workloads () in
  Alcotest.(check int) "row count" (List.length serial) (List.length parallel);
  Alcotest.(check bool) "rows bit-identical" true (serial = parallel)

let test_experiments_sweeps_deterministic () =
  let serial = Core.Experiments.fig6 ~jobs:1 ~sizes:[ 100; 200 ] () in
  let parallel = Core.Experiments.fig6 ~jobs:4 ~sizes:[ 100; 200 ] () in
  Alcotest.(check bool) "fig6 rows identical" true (serial = parallel);
  let instance = Core.Workloads.verification_instance Core.Workloads.vm in
  let caps = [ 4096; 8192; 16384 ] in
  let s = Core.Experiments.cache_sweep ~jobs:1 ~capacities:caps instance in
  let p = Core.Experiments.cache_sweep ~jobs:4 ~capacities:caps instance in
  Alcotest.(check bool) "cache_sweep rows identical" true (s = p)

(* Module-level state reachable from pool tasks is a data race under
   OCaml 5 domains: two domains forcing a shared [lazy] at once raise
   [CamlinternalLazy.Undefined], and an unguarded [ref], [Hashtbl] or
   [Array] is written by whichever domain gets there.  Scan every library
   source for a top-level binding whose body starts (on the binding's
   line or the next non-blank one) with one of [words]; return each hit
   as (file:line, the binding's line). *)
let top_level_bindings_starting_with words root =
  let rec sources dir =
    List.concat_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then sources path
        else if Filename.check_suffix name ".ml" then [ path ]
        else [])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let starts_state text =
    let text = String.trim text in
    let word w =
      String.length text >= String.length w
      && String.sub text 0 (String.length w) = w
      && (String.length text = String.length w
         || not
              (match text.[String.length w] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
              | _ -> false))
    in
    List.exists word words
  in
  let binding line =
    List.exists
      (fun kw ->
        String.length line > String.length kw
        && String.sub line 0 (String.length kw) = kw)
      [ "let "; "and " ]
  in
  List.concat_map
    (fun path ->
      let lines =
        Array.of_list
          (String.split_on_char '\n'
             (In_channel.with_open_bin path In_channel.input_all))
      in
      let hits = ref [] in
      Array.iteri
        (fun i line ->
          if binding line then
            match String.index_opt line '=' with
            | None -> ()
            | Some eq ->
                let rest = String.sub line (eq + 1) (String.length line - eq - 1) in
                let body =
                  if String.trim rest <> "" then Some rest
                  else begin
                    let j = ref (i + 1) in
                    while !j < Array.length lines && String.trim lines.(!j) = "" do
                      incr j
                    done;
                    if !j < Array.length lines then Some lines.(!j) else None
                  end
                in
                if Option.fold ~none:false ~some:starts_state body then
                  hits := (Printf.sprintf "%s:%d" path (i + 1), line) :: !hits)
        lines;
      List.rev !hits)
    (sources root)

(* The two registries, each written only under its module's mutex: file
   and the start of the binding's line. *)
let guarded_registries =
  [ ("../lib/core/workload.ml", "let table "); ("../lib/patterns/template_provider.ml", "let table ") ]

(* Tests run from _build/default/test; the library sources are declared
   as a dependency in test/dune. *)
let test_no_top_level_lazy () =
  Alcotest.(check (list string)) "top-level lazy in lib/" []
    (List.map fst
       (top_level_bindings_starting_with [ "lazy"; "Lazy.from_fun" ] "../lib"))

let test_no_top_level_mutable_state () =
  let guarded (loc, line) =
    List.exists
      (fun (file, start) ->
        String.starts_with ~prefix:(file ^ ":") loc
        && String.starts_with ~prefix:start line)
      guarded_registries
  in
  let hits =
    top_level_bindings_starting_with
      [ "ref"; "Hashtbl.create"; "Array.make" ]
      "../lib"
  in
  Alcotest.(check int) "both registries found" 2
    (List.length (List.filter guarded hits));
  Alcotest.(check (list string)) "top-level mutable state in lib/" []
    (List.filter_map (fun h -> if guarded h then None else Some (fst h)) hits)

let suite =
  [
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "no top-level lazy in lib/" `Quick
      test_no_top_level_lazy;
    Alcotest.test_case "no top-level mutable state in lib/" `Quick
      test_no_top_level_mutable_state;
    Alcotest.test_case "order preserved (jobs > items)" `Quick
      test_order_preserved_jobs_gt_items;
    Alcotest.test_case "order preserved (items > jobs)" `Quick
      test_order_preserved_items_gt_jobs;
    Alcotest.test_case "jobs=1 is the serial path" `Quick
      test_jobs_one_is_serial;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "first failure in input order" `Quick
      test_first_failure_in_input_order;
    Alcotest.test_case "pool reuse and shutdown" `Quick
      test_pool_reuse_and_shutdown;
    Alcotest.test_case "nonpositive jobs rejected" `Quick
      test_create_rejects_nonpositive_jobs;
    Alcotest.test_case "with_pool cleans up on exception" `Quick
      test_with_pool_shuts_down_on_exception;
    Alcotest.test_case "verify sweep deterministic" `Slow
      test_verify_run_all_deterministic;
    Alcotest.test_case "experiment sweeps deterministic" `Slow
      test_experiments_sweeps_deterministic;
  ]
