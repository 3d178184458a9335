module T = Access_patterns.Template
module L = Access_patterns.Template_lang

let small_cache = Cachesim.Config.small_verification (* 256 blocks of 32 B *)

(* --- Template (block-trace algorithm) --- *)

(* One set of [capacity] ways: the model then has exactly [capacity]
   blocks available. *)
let fully_associative ?(line = 8) capacity =
  Cachesim.Config.make ~name:"fa" ~associativity:capacity ~sets:1 ~line

let flags writes =
  Bytes.init (Array.length writes) (fun i -> if writes.(i) then '\001' else '\000')

(* A block trace as a template: 8-byte elements on 8-byte lines, so each
   element index is its block id. *)
let block_template ?(distance = `Stack) ?writes trace =
  T.make ~distance ?writes:(Option.map flags writes) ~elem_size:8 trace

let accesses ~capacity t =
  int_of_float (T.main_memory_accesses ~cache:(fully_associative capacity) t)

(* Without stores there are no writebacks: the accesses are the misses. *)
let misses_on ~capacity ~distance trace =
  accesses ~capacity (block_template ~distance trace)

let test_first_touch_counts () =
  (* All-distinct trace: every access is a compulsory miss. *)
  let misses = misses_on ~capacity:4 ~distance:`Stack [| 1; 2; 3; 4; 5 |] in
  Alcotest.(check int) "compulsory" 5 misses

let test_reuse_within_capacity_hits () =
  (* Re-touch within capacity: second round all hits with capacity 3. *)
  let misses = misses_on ~capacity:3 ~distance:`Stack [| 1; 2; 3; 1; 2; 3 |] in
  Alcotest.(check int) "3 cold only" 3 misses

let test_reuse_beyond_capacity_misses () =
  (* Cyclic sweep over 4 blocks with capacity 3 thrashes: every access
     misses (the classic LRU worst case). *)
  let trace = Array.init 12 (fun i -> i mod 4) in
  let misses = misses_on ~capacity:3 ~distance:`Stack trace in
  Alcotest.(check int) "all miss" 12 misses

let test_stack_distance_ignores_duplicates () =
  (* 1 2 2 2 1: raw distance of the final 1 is 3, but only one distinct
     block intervenes, so with capacity 2 it hits under `Stack and misses
     under `Raw. *)
  let trace = [| 1; 2; 2; 2; 1 |] in
  Alcotest.(check int) "stack" 2 (misses_on ~capacity:2 ~distance:`Stack trace);
  Alcotest.(check int) "raw" 3 (misses_on ~capacity:2 ~distance:`Raw trace)

let test_empty_trace () =
  Alcotest.(check int) "empty" 0 (misses_on ~capacity:4 ~distance:`Stack [||])

let test_block_trace_lowering () =
  (* 16-byte elements over 32-byte lines: elements 0,1 share block 0;
     element 2 is in block 1, so refs 0 2 1 lower to blocks 0 1 0. *)
  let at_line_32 capacity t =
    T.main_memory_accesses ~cache:(fully_associative ~line:32 capacity) t
  in
  let t = T.make ~elem_size:16 [| 0; 2; 1 |] in
  let blocks = block_template [| 0; 1; 0 |] in
  List.iter
    (fun capacity ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "blocks, capacity %d" capacity)
        (float_of_int (accesses ~capacity blocks)) (at_line_32 capacity t))
    [ 1; 2; 3 ];
  Alcotest.(check int) "two blocks" 2
    (T.distinct_blocks ~cache:(fully_associative ~line:32 1) t);
  Alcotest.(check (float 0.0)) "block 0 revisited past block 1" 3.0 (at_line_32 1 t);
  (* 64-byte elements span two 32-byte lines each; write flags follow the
     element. *)
  let t2 = T.make ~writes:(flags [| false; true |]) ~elem_size:64 [| 0; 1 |] in
  let blocks2 =
    block_template ~writes:[| false; false; true; true |] [| 0; 1; 2; 3 |]
  in
  List.iter
    (fun capacity ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "spanning, with write flags, capacity %d" capacity)
        (float_of_int (accesses ~capacity blocks2)) (at_line_32 capacity t2))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "spanning" 4
    (T.distinct_blocks ~cache:(fully_associative ~line:32 1) t2);
  Alcotest.(check (float 0.0)) "write flags: 4 misses + 2 writebacks" 6.0
    (at_line_32 1 t2)

let test_available_blocks_ratio () =
  let t = T.make ~cache_ratio:0.5 ~elem_size:8 [| 0 |] in
  Alcotest.(check int) "half the cache" 128 (T.available_blocks ~cache:small_cache t)

(* Compare the template model against the cache simulator on the same
   reference stream.  The model is fully associative; with a trace confined
   to few blocks per set the LRU simulation agrees closely. *)
let simulate_elements ~cache ~elem_size refs =
  let c = Cachesim.Cache.create cache in
  Array.iter
    (fun e ->
      Cachesim.Cache.access c ~owner:1 ~write:false ~addr:(e * elem_size)
        ~size:elem_size)
    refs;
  let s = Cachesim.Stats.owner_counters (Cachesim.Cache.stats c) 1 in
  s.Cachesim.Stats.misses

let test_model_matches_simulation_sequential () =
  (* Repeated sweep over a structure larger than the cache. *)
  let n = 600 (* 600 * 32 B = 18.75 KB > 8 KB *) in
  let refs = Array.init (3 * n) (fun i -> i mod n) in
  let t = T.make ~elem_size:32 refs in
  let model = T.main_memory_accesses ~cache:small_cache t in
  let sim = simulate_elements ~cache:small_cache ~elem_size:32 refs in
  let err = Dvf_util.Maths.rel_error ~expected:(float_of_int sim) ~actual:model in
  Alcotest.(check bool)
    (Printf.sprintf "model %.0f vs sim %d (err %.1f%%)" model sim (100.0 *. err))
    true (err <= 0.15)

let test_model_matches_simulation_small_working_set () =
  (* Working set fits: model and simulation must both report only cold
     misses. *)
  let n = 100 in
  let refs = Array.init (5 * n) (fun i -> i mod n) in
  let t = T.make ~elem_size:32 refs in
  let model = T.main_memory_accesses ~cache:small_cache t in
  let sim = simulate_elements ~cache:small_cache ~elem_size:32 refs in
  Alcotest.(check int) "sim cold only" n sim;
  Alcotest.(check (float 0.5)) "model cold only" (float_of_int n) model

(* --- Template_lang --- *)

let test_linearize_row_major () =
  (* Paper: R(i,j,k) = i*n2*n1 + j*n1 + k with shape [n3; n2; n1]. *)
  let shape = [ 8; 6; 4 ] in
  Alcotest.(check int) "R(2,1,1)" ((2 * 6 * 4) + (1 * 4) + 1)
    (L.linearize ~shape [ 2; 1; 1 ]);
  Alcotest.(check int) "origin" 0 (L.linearize ~shape [ 0; 0; 0 ])

let test_linearize_rank_mismatch () =
  Alcotest.check_raises "rank" (Invalid_argument "Template_lang.linearize: rank mismatch")
    (fun () -> ignore (L.linearize ~shape:[ 2; 2 ] [ 1 ]))

let test_expand_refs () =
  let open L in
  let g = Refs [ [ Expr.Int 3 ]; [ Expr.Int 1 ]; [ Expr.Int 4 ] ] in
  Alcotest.(check (array int)) "literal refs" [| 3; 1; 4 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] g)

let test_expand_range_mg_style () =
  (* Two streams advancing by 1 from (0,0) and (0,2) to (0,3) and (0,5) in
     a 4x8 grid: stream offsets 0->3 and 2->5, interleaved round-robin. *)
  let open L in
  let shape = [ Expr.Var "n2"; Expr.Var "n1" ] in
  let env = [ ("n2", 4); ("n1", 8) ] in
  let g =
    Range
      {
        start = [ [ Expr.Int 0; Expr.Int 0 ]; [ Expr.Int 0; Expr.Int 2 ] ];
        step = Expr.Int 1;
        stop = [ [ Expr.Int 0; Expr.Int 3 ]; [ Expr.Int 0; Expr.Int 5 ] ];
      }
  in
  Alcotest.(check (array int)) "interleaved"
    [| 0; 2; 1; 3; 2; 4; 3; 5 |]
    (expand ~env ~shape g)

let test_expand_range_with_dim_exprs () =
  (* Stop expressed through dimension variables, like the paper's
     R(n3-1, n2-2, n1). *)
  let open L in
  let shape = [ Expr.Var "n"; Expr.Var "n" ] in
  let env = [ ("n", 4) ] in
  let g =
    Range
      {
        start = [ [ Expr.Int 0; Expr.Int 0 ] ];
        step = Expr.Int 1;
        stop = [ [ Expr.Sub (Expr.Var "n", Expr.Int 1); Expr.Sub (Expr.Var "n", Expr.Int 1) ] ];
      }
  in
  let out = expand ~env ~shape g in
  Alcotest.(check int) "covers the grid" 16 (Array.length out);
  Alcotest.(check int) "last" 15 out.(15)

let test_expand_pass () =
  let open L in
  let g = Pass { start = Expr.Int 2; count = Expr.Int 4; stride = Expr.Int 3 } in
  Alcotest.(check (array int)) "pass" [| 2; 5; 8; 11 |]
    (expand ~env:[] ~shape:[ Expr.Int 100 ] g)

let test_expand_repeat_seq () =
  let open L in
  let g =
    Repeat
      ( Expr.Int 2,
        [ Pass { start = Expr.Int 0; count = Expr.Int 2; stride = Expr.Int 1 } ] )
  in
  Alcotest.(check (array int)) "repeat" [| 0; 1; 0; 1 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] g);
  let s = Seq [ g; Refs [ [ Expr.Int 9 ] ] ] in
  Alcotest.(check (array int)) "seq" [| 0; 1; 0; 1; 9 |]
    (expand ~env:[] ~shape:[ Expr.Int 10 ] s)

let test_expansion_length_agrees () =
  let open L in
  let g =
    Seq
      [
        Pass { start = Expr.Int 0; count = Expr.Int 7; stride = Expr.Int 2 };
        Repeat (Expr.Int 3, [ Refs [ [ Expr.Int 1 ]; [ Expr.Int 2 ] ] ]);
      ]
  in
  let shape = [ Expr.Int 100 ] in
  Alcotest.(check int) "length"
    (Array.length (expand ~env:[] ~shape g))
    (expansion_length ~env:[] ~shape g)

let test_range_errors () =
  let open L in
  let shape = [ Expr.Int 100 ] in
  Alcotest.check_raises "zero step" (Failure "Template_lang: range step is zero")
    (fun () ->
      ignore
        (expand ~env:[] ~shape
           (Range { start = [ [ Expr.Int 0 ] ]; step = Expr.Int 0; stop = [ [ Expr.Int 5 ] ] })));
  (* Unequal stream spans: the sweep stops when the first stream reaches
     its boundary (6 iterations here). *)
  Alcotest.(check int) "min span wins" 12
    (Array.length
       (expand ~env:[] ~shape
          (Range
             {
               start = [ [ Expr.Int 0 ]; [ Expr.Int 0 ] ];
               step = Expr.Int 1;
               stop = [ [ Expr.Int 5 ]; [ Expr.Int 7 ] ];
             })));
  Alcotest.check_raises "unbound var"
    (Failure "Template_lang: unbound dimension variable zz") (fun () ->
      ignore (expand ~env:[] ~shape (Refs [ [ Expr.Var "zz" ] ])))

(* Property: template-model misses never exceed trace length and never go
   below the distinct block count. *)
let prop_miss_bounds =
  QCheck.Test.make ~count:200 ~name:"template misses bounded"
    QCheck.(pair (int_range 1 64) (list_of_size (Gen.int_range 1 300) (int_range 0 63)))
    (fun (capacity, refs) ->
      let trace = Array.of_list refs in
      let distinct = Hashtbl.create 16 in
      Array.iter (fun b -> Hashtbl.replace distinct b ()) trace;
      let m = misses_on ~capacity ~distance:`Stack trace in
      m >= Hashtbl.length distinct && m <= Array.length trace)

(* Property: the stack-distance model agrees exactly with a
   fully-associative LRU simulation. *)
let prop_stack_matches_fully_associative_lru =
  QCheck.Test.make ~count:200 ~name:"stack model = fully-associative LRU"
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.int_range 1 300) (int_range 0 40)))
    (fun (capacity, refs) ->
      let trace = Array.of_list refs in
      (* Reference fully-associative LRU. *)
      let lru = ref [] in
      let misses = ref 0 in
      Array.iter
        (fun b ->
          if List.mem b !lru then lru := b :: List.filter (fun x -> x <> b) !lru
          else begin
            incr misses;
            let kept = b :: !lru in
            lru :=
              (if List.length kept > capacity then
                 List.filteri (fun i _ -> i < capacity) kept
               else kept)
          end)
        trace;
      misses_on ~capacity ~distance:`Stack trace = !misses)

(* Reference fully-associative LRU with dirty bits, for the writeback
   accounting. *)
let reference_lru_with_writebacks ~capacity trace writes =
  let lru = ref [] (* (block, dirty), MRU first *) in
  let misses = ref 0 and writebacks = ref 0 in
  Array.iteri
    (fun i b ->
      let w = writes.(i) in
      match List.assoc_opt b !lru with
      | Some dirty ->
          lru := (b, dirty || w) :: List.remove_assoc b !lru
      | None ->
          incr misses;
          let kept = (b, w) :: !lru in
          if List.length kept > capacity then begin
            let rec split acc = function
              | [ (_, dirty) ] ->
                  if dirty then incr writebacks;
                  List.rev acc
              | x :: rest -> split (x :: acc) rest
              | [] -> assert false
            in
            lru := split [] kept
          end
          else lru := kept)
    trace;
  List.iter (fun (_, dirty) -> if dirty then incr writebacks) !lru;
  (!misses, !writebacks)

let prop_writebacks_match_reference =
  QCheck.Test.make ~count:200 ~name:"template writebacks = LRU reference"
    QCheck.(
      pair (int_range 1 12)
        (list_of_size (Gen.int_range 1 200) (pair (int_range 0 30) bool)))
    (fun (capacity, ops) ->
      let trace = Array.of_list (List.map fst ops) in
      let writes = Array.of_list (List.map snd ops) in
      (* Misses from the read-only template, misses + writebacks with
         the stores. *)
      let m, w = reference_lru_with_writebacks ~capacity trace writes in
      misses_on ~capacity ~distance:`Stack trace = m
      && accesses ~capacity (block_template ~writes trace) = m + w)

(* The same trace on the real simulator, fully associative: one set of
   [capacity] ways, one block per line, through [access_batch], flushed
   at the end. *)
let simulate_fully_associative ~capacity trace writes =
  let line = 8 in
  let c =
    Cachesim.Cache.create
      (Cachesim.Config.make ~name:"fa" ~associativity:capacity ~sets:1 ~line)
  in
  let addrs = Array.map (fun b -> b * line) trace in
  let metas =
    Array.map (fun write -> Cachesim.Cache.pack_access ~owner:1 ~write ~size:1) writes
  in
  Cachesim.Cache.access_batch c ~addrs ~metas ~pos:0 ~len:(Array.length trace);
  Cachesim.Cache.flush c;
  let s = Cachesim.Stats.totals (Cachesim.Cache.stats c) in
  (s.Cachesim.Stats.misses, s.Cachesim.Stats.writebacks)

let distinct_blocks trace =
  List.length (List.sort_uniq compare (Array.to_list trace))

let gen_rw_trace ~blocks =
  QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 0 blocks) bool))

(* At every capacity up to one past the distinct blocks, one template
   (one memo) gives what an LRU cache of that many blocks does: the list
   reference and the simulator alike. *)
let prop_profile_every_capacity =
  QCheck.Test.make ~count:200 ~name:"one profile = LRU reference and simulator at every capacity"
    (gen_rw_trace ~blocks:70)
    (fun ops ->
      let trace = Array.of_list (List.map fst ops) in
      let writes = Array.of_list (List.map snd ops) in
      let t = block_template ~writes trace and r = block_template trace in
      let distinct = distinct_blocks trace in
      List.for_all
        (fun capacity ->
          let expected = reference_lru_with_writebacks ~capacity trace writes in
          let m, w = expected in
          T.distinct_blocks ~cache:(fully_associative capacity) t = distinct
          && accesses ~capacity r = m
          && accesses ~capacity t = m + w
          && expected = simulate_fully_associative ~capacity trace writes)
        (List.init (distinct + 1) (fun i -> i + 1)))

(* The paper-literal [`Raw] distance, simulated naively per capacity: a
   re-reference misses iff more than [capacity - 1] references lie
   between it and the block's previous one. *)
let reference_raw ~capacity trace writes =
  let nb = Array.fold_left max 0 trace + 1 in
  let last = Array.make nb (-1) and dirty = Array.make nb false in
  let misses = ref 0 and writebacks = ref 0 in
  Array.iteri
    (fun t b ->
      let w = writes.(t) in
      if last.(b) < 0 || t - last.(b) - 1 >= capacity then begin
        incr misses;
        if dirty.(b) then incr writebacks;
        dirty.(b) <- w
      end
      else if w then dirty.(b) <- true;
      last.(b) <- t)
    trace;
  Array.iter (fun d -> if d then incr writebacks) dirty;
  (!misses, !writebacks)

let prop_raw_profile_every_capacity =
  QCheck.Test.make ~count:200 ~name:"raw profile = naive raw distance at every capacity"
    (gen_rw_trace ~blocks:30)
    (fun ops ->
      let trace = Array.of_list (List.map fst ops) in
      let writes = Array.of_list (List.map snd ops) in
      let t = block_template ~distance:`Raw ~writes trace in
      let r = block_template ~distance:`Raw trace in
      List.for_all
        (fun capacity ->
          let m, w = reference_raw ~capacity trace writes in
          accesses ~capacity r = m && accesses ~capacity t = m + w)
        (List.init (Array.length trace + 1) (fun i -> i + 1)))

(* Sparse ids far above the trace length are renumbered, not used as
   array indices: the answers equal those of the dense relabelling, and
   computing them allocates in proportion to the trace alone. *)
let test_sparse_block_ids () =
  let dense = Array.init 2000 (fun i -> (i * 7) mod 97) in
  let writes = Array.init 2000 (fun i -> i mod 3 = 0) in
  let sparse = Array.map (fun b -> (b * (1 lsl 40)) + 5) dense in
  let capacities = [ 1; 2; 10; 50; 96; 97; 98; 3000 ] in
  List.iter
    (fun distance ->
      let ts = block_template ~distance ~writes sparse in
      let td = block_template ~distance ~writes dense in
      let before = Gc.allocated_bytes () in
      let got = List.map (fun capacity -> accesses ~capacity ts) capacities in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "allocated %.0f bytes" allocated)
        true (allocated < 4e6);
      Alcotest.(check (list int)) "sparse = dense"
        (List.map (fun capacity -> accesses ~capacity td) capacities)
        got)
    [ `Stack; `Raw ]

let allocation f =
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

(* The memo is per template value and domain-safe: evaluating one
   template from four domains at once gives the serial answers, and
   later calls (and [distinct_blocks]) look the published results up
   rather than run the pass again. *)
let test_profile_memo () =
  let refs = Array.init 5000 (fun i -> (i * 13) mod 1500) in
  let writes = Array.init 5000 (fun i -> i mod 4 = 0) in
  let fresh () = T.make ~writes:(flags writes) ~elem_size:8 refs in
  let caches = Cachesim.Config.profiling_set in
  let serial =
    List.map (fun cache -> T.main_memory_accesses ~cache (fresh ())) caches
  in
  let t = fresh () in
  let evaluate t () =
    List.map (fun cache -> T.main_memory_accesses ~cache t) caches
  in
  let parallel = Dvf_util.Parallel.map ~jobs:4 (evaluate t) (Array.make 4 ()) in
  Array.iter (Alcotest.(check (list (float 0.0))) "parallel = serial" serial) parallel;
  let published = allocation (fun () -> ignore (evaluate t ())) in
  Alcotest.(check bool)
    (Printf.sprintf "published results reused (%.0f bytes)" published)
    true (published < 4096.);
  let cache = Cachesim.Config.small_verification in
  let u = fresh () in
  let first = allocation (fun () -> ignore (T.main_memory_accesses ~cache u)) in
  let again = allocation (fun () -> ignore (T.main_memory_accesses ~cache u)) in
  let distinct = allocation (fun () -> ignore (T.distinct_blocks ~cache u)) in
  Alcotest.(check bool)
    (Printf.sprintf "first pass allocates (%.0f bytes)" first)
    true (first > 4096.);
  Alcotest.(check bool)
    (Printf.sprintf "second evaluation reuses the result (%.0f bytes)" again)
    true (again < 1024.);
  Alcotest.(check bool)
    (Printf.sprintf "distinct_blocks reads the same entry (%.0f bytes)" distinct)
    true (distinct < 1024.);
  Alcotest.(check bool) "another template has its own" true
    (allocation (fun () -> ignore (T.main_memory_accesses ~cache (fresh ())))
    > 4096.)

let suite =
  [
    Alcotest.test_case "first touch counts" `Quick test_first_touch_counts;
    Alcotest.test_case "reuse within capacity hits" `Quick
      test_reuse_within_capacity_hits;
    Alcotest.test_case "reuse beyond capacity misses" `Quick
      test_reuse_beyond_capacity_misses;
    Alcotest.test_case "stack vs raw distance" `Quick
      test_stack_distance_ignores_duplicates;
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "block lowering" `Quick test_block_trace_lowering;
    Alcotest.test_case "available blocks ratio" `Quick
      test_available_blocks_ratio;
    Alcotest.test_case "model vs simulation (thrash)" `Quick
      test_model_matches_simulation_sequential;
    Alcotest.test_case "model vs simulation (resident)" `Quick
      test_model_matches_simulation_small_working_set;
    Alcotest.test_case "linearize row major" `Quick test_linearize_row_major;
    Alcotest.test_case "linearize rank mismatch" `Quick
      test_linearize_rank_mismatch;
    Alcotest.test_case "expand literal refs" `Quick test_expand_refs;
    Alcotest.test_case "expand MG-style range" `Quick test_expand_range_mg_style;
    Alcotest.test_case "expand range with dims" `Quick
      test_expand_range_with_dim_exprs;
    Alcotest.test_case "expand pass" `Quick test_expand_pass;
    Alcotest.test_case "expand repeat/seq" `Quick test_expand_repeat_seq;
    Alcotest.test_case "expansion length agrees" `Quick
      test_expansion_length_agrees;
    Alcotest.test_case "range errors" `Quick test_range_errors;
    QCheck_alcotest.to_alcotest prop_miss_bounds;
    QCheck_alcotest.to_alcotest prop_stack_matches_fully_associative_lru;
    QCheck_alcotest.to_alcotest prop_writebacks_match_reference;
    QCheck_alcotest.to_alcotest prop_profile_every_capacity;
    QCheck_alcotest.to_alcotest prop_raw_profile_every_capacity;
    Alcotest.test_case "sparse block ids" `Quick test_sparse_block_ids;
    Alcotest.test_case "profile memo across domains" `Quick test_profile_memo;
  ]
