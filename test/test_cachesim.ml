module C = Cachesim

let tiny_config =
  (* 2-way, 2 sets, 16 B lines: 64 B cache, small enough to reason about
     every eviction by hand. *)
  C.Config.make ~name:"tiny" ~associativity:2 ~sets:2 ~line:16

let test_config_capacity () =
  Alcotest.(check int) "capacity" 64 (C.Config.capacity tiny_config);
  Alcotest.(check int) "blocks" 4 (C.Config.blocks tiny_config)

let test_config_validation () =
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Config.make: sets must be a positive power of two (got 3)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:1 ~sets:3 ~line:16));
  Alcotest.check_raises "bad line"
    (Invalid_argument "Config.make: line must be a positive power of two (got 10)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:1 ~sets:2 ~line:10));
  Alcotest.check_raises "bad assoc"
    (Invalid_argument "Config.make: associativity must be positive (got 0)")
    (fun () -> ignore (C.Config.make ~name:"x" ~associativity:0 ~sets:2 ~line:16))

(* Regression: flooring log2 / sets-1 masking silently mis-indexed any
   non-power-of-two geometry, so every rejected shape here was once a
   wrong simulation instead of an error.  Zero and negative values must
   fail too (0 passes the [n land (n-1) = 0] bit test alone). *)
let test_config_rejects_all_bad_geometry () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  List.iter
    (fun sets ->
      expect_invalid
        (Printf.sprintf "sets=%d" sets)
        (fun () -> C.Config.make ~name:"x" ~associativity:1 ~sets ~line:16))
    [ 0; -1; 3; 6; 48; 100; 4095 ];
  List.iter
    (fun line ->
      expect_invalid
        (Printf.sprintf "line=%d" line)
        (fun () -> C.Config.make ~name:"x" ~associativity:1 ~sets:2 ~line))
    [ 0; -16; 3; 24; 48; 100 ];
  (* Non-power-of-two associativity is legal (Table IV's 1MB cache is
     6-way). *)
  ignore (C.Config.make ~name:"6-way" ~associativity:6 ~sets:2 ~line:16)

let test_is_power_of_two () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "is_power_of_two %d" n)
        expected
        (C.Config.is_power_of_two n))
    [ (1, true); (2, true); (64, true); (0, false); (-4, false); (6, false) ]

let test_stats_merge () =
  let a = C.Stats.create () in
  let b = C.Stats.create () in
  C.Stats.record_access a ~owner:1 ~write:false ~hit:false;
  C.Stats.record_access a ~owner:1 ~write:true ~hit:true;
  C.Stats.record_writeback a ~owner:1;
  C.Stats.record_access b ~owner:1 ~write:false ~hit:true;
  (* Owner 20 only exists in [b]: merge must grow the accumulator. *)
  C.Stats.record_access b ~owner:20 ~write:true ~hit:false;
  C.Stats.merge ~into:a b;
  let c1 = C.Stats.owner_counters a 1 in
  Alcotest.(check int) "reads" 2 c1.C.Stats.reads;
  Alcotest.(check int) "writes" 1 c1.C.Stats.writes;
  Alcotest.(check int) "hits" 2 c1.C.Stats.hits;
  Alcotest.(check int) "misses" 1 c1.C.Stats.misses;
  Alcotest.(check int) "writebacks" 1 c1.C.Stats.writebacks;
  let c20 = C.Stats.owner_counters a 20 in
  Alcotest.(check int) "grown owner misses" 1 c20.C.Stats.misses;
  (* [b] is untouched by the merge. *)
  Alcotest.(check int) "src untouched" 1 (C.Stats.owner_counters b 1).C.Stats.hits

let test_stats_sum_equals_combined_run () =
  (* Split one access stream across two caches; summed stats must equal
     the totals of each part combined (the parallel-sweep aggregation
     contract). *)
  let mk () = C.Cache.create tiny_config in
  let c1 = mk () and c2 = mk () in
  List.iter
    (fun (c, addr) -> C.Cache.access c ~owner:1 ~write:true ~addr ~size:4)
    [ (c1, 0); (c1, 32); (c2, 64); (c2, 96); (c2, 0) ];
  let summed = C.Stats.create () in
  List.iter (fun c -> C.Stats.merge ~into:summed (C.Cache.stats c)) [ c1; c2 ];
  let t = C.Stats.totals summed in
  Alcotest.(check int) "writes" 5 t.C.Stats.writes;
  Alcotest.(check int) "misses" 5 t.C.Stats.misses

let test_table_iv_presets () =
  Alcotest.(check int) "small verif 8KB" 8192
    (C.Config.capacity C.Config.small_verification);
  Alcotest.(check int) "16KB profiling" 16384
    (C.Config.capacity C.Config.profiling_16kb);
  Alcotest.(check int) "128KB profiling" 131072
    (C.Config.capacity C.Config.profiling_128kb);
  Alcotest.(check int) "768KB profiling (paper's \"1MB\")" 786432
    (C.Config.capacity C.Config.profiling_768kb);
  Alcotest.(check int) "4MB profiling (paper's \"8MB\")" 4194304
    (C.Config.capacity C.Config.profiling_4mb)

(* Regression for the mislabeled Table IV presets: the paper's "1MB" is
   really 768 KB and its "8MB" really 4 MB.  Every named config whose
   name is a byte size must render its parameter-derived capacity
   exactly, so a label can never drift from the geometry again. *)
let test_named_capacity_matches_name () =
  List.iter
    (fun (cfg : C.Config.t) ->
      let looks_like_size =
        String.length cfg.name > 2
        && (match cfg.name.[0] with '0' .. '9' -> true | _ -> false)
        && (String.length cfg.name >= 2
            && String.sub cfg.name (String.length cfg.name - 1) 1 = "B")
      in
      if looks_like_size then
        Alcotest.(check string)
          (Printf.sprintf "capacity renders as %s" cfg.name)
          cfg.name
          (Format.asprintf "%a" Dvf_util.Units.pp_bytes (C.Config.capacity cfg)))
    (C.Config.profiling_set @ C.Config.verification_set);
  (* All four profiling presets are size-named, so the check above is not
     vacuous. *)
  Alcotest.(check int) "size-named configs" 4
    (List.length
       (List.filter
          (fun (cfg : C.Config.t) ->
            match cfg.name.[0] with '0' .. '9' -> true | _ -> false)
          C.Config.profiling_set))

let test_cold_miss_then_hit () =
  let cache = C.Cache.create tiny_config in
  Alcotest.(check bool) "cold miss" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "hit" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "same line different byte" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:15)

let test_lru_eviction_order () =
  let cache = C.Cache.create tiny_config in
  (* Set 0 holds lines with (line mod 2 = 0): lines 0, 2, 4 (addresses 0,
     32, 64).  2-way: loading 0 then 2 then touching 0 again then loading
     4 must evict 2 (the LRU), not 0. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:64);
  Alcotest.(check bool) "0 survives" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "32 evicted" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:32)

let test_set_mapping () =
  let cache = C.Cache.create tiny_config in
  (* Lines 0 and 1 (addresses 0 and 16) map to different sets and never
     conflict. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16);
  Alcotest.(check bool) "line 0 resident" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  Alcotest.(check bool) "line 1 resident" true
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16)

let test_writeback_on_dirty_eviction () =
  let cache = C.Cache.create tiny_config in
  (* Dirty line 0 in set 0, then evict it with two more set-0 lines. *)
  ignore (C.Cache.touch_line cache ~owner:3 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:64);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:96);
  let c = C.Stats.owner_counters (C.Cache.stats cache) 3 in
  Alcotest.(check int) "one writeback" 1 c.C.Stats.writebacks

let test_clean_eviction_no_writeback () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:3 ~write:false ~line_addr:64);
  let c = C.Stats.owner_counters (C.Cache.stats cache) 3 in
  Alcotest.(check int) "no writebacks" 0 c.C.Stats.writebacks

let test_writeback_attributed_to_line_owner () =
  let cache = C.Cache.create tiny_config in
  (* Owner 1 dirties a line; owner 2 evicts it.  The writeback belongs to
     owner 1. *)
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:32);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:64);
  let s = C.Cache.stats cache in
  Alcotest.(check int) "owner 1 writeback" 1
    (C.Stats.owner_counters s 1).C.Stats.writebacks;
  Alcotest.(check int) "owner 2 none" 0
    (C.Stats.owner_counters s 2).C.Stats.writebacks

let test_access_spans_lines () =
  let cache = C.Cache.create tiny_config in
  (* A 20-byte access at address 10 touches lines 0 and 1. *)
  C.Cache.access cache ~owner:1 ~write:false ~addr:10 ~size:20;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "two lookups" 2 (c.C.Stats.reads);
  Alcotest.(check int) "two misses" 2 c.C.Stats.misses

let test_flush_counts_dirty () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:16);
  C.Cache.flush cache;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "one writeback from flush" 1 c.C.Stats.writebacks;
  (* After flush everything misses again. *)
  Alcotest.(check bool) "cold after flush" false
    (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0)

let test_invalidate_drops_silently () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  C.Cache.invalidate cache;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "no writeback" 0 c.C.Stats.writebacks

let test_resident_lines () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:2 ~write:false ~line_addr:16);
  Alcotest.(check int) "owner 1" 1 (C.Cache.resident_lines cache ~owner:1);
  Alcotest.(check int) "owner 2" 1 (C.Cache.resident_lines cache ~owner:2)

let test_streaming_miss_count () =
  (* A unit-stride traverse of D bytes must miss exactly ceil(D/CL). *)
  let cache = C.Cache.create tiny_config in
  let bytes = 1000 in
  for addr = 0 to bytes - 1 do
    C.Cache.access cache ~owner:1 ~write:false ~addr ~size:1
  done;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "compulsory misses" (Dvf_util.Maths.cdiv bytes 16)
    c.C.Stats.misses

let test_working_set_fits_no_capacity_misses () =
  (* 4 lines fit exactly; repeated traversal of 2 lines per set never
     misses after the first pass. *)
  let cache = C.Cache.create tiny_config in
  for _pass = 1 to 10 do
    List.iter
      (fun addr ->
        ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:addr))
      [ 0; 16; 32; 48 ]
  done;
  let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
  Alcotest.(check int) "only 4 cold misses" 4 c.C.Stats.misses

let test_stats_totals () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:5 ~write:true ~line_addr:16);
  let totals = C.Stats.totals (C.Cache.stats cache) in
  Alcotest.(check int) "reads" 1 totals.C.Stats.reads;
  Alcotest.(check int) "writes" 1 totals.C.Stats.writes;
  Alcotest.(check int) "misses" 2 totals.C.Stats.misses;
  Alcotest.(check (list int)) "owners" [ 1; 5 ]
    (C.Stats.owners (C.Cache.stats cache))

(* --- immutable snapshots --- *)

let test_snapshot_matches_live_counters () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  ignore (C.Cache.touch_line cache ~owner:5 ~write:true ~line_addr:16);
  ignore (C.Cache.touch_line cache ~owner:1 ~write:false ~line_addr:0);
  let stats = C.Cache.stats cache in
  let snap = C.Stats.snapshot stats in
  Alcotest.(check bool) "totals agree" true
    (C.Stats.Snapshot.totals snap = C.Stats.totals stats);
  Alcotest.(check (list int)) "owners agree" (C.Stats.owners stats)
    (C.Stats.Snapshot.owners snap);
  List.iter
    (fun owner ->
      Alcotest.(check bool)
        (Printf.sprintf "owner %d counters agree" owner)
        true
        (C.Stats.Snapshot.owner snap owner = C.Stats.owner_counters stats owner);
      Alcotest.(check int)
        (Printf.sprintf "owner %d main memory agrees" owner)
        (C.Stats.main_memory_accesses stats owner)
        (C.Stats.Snapshot.owner_main_memory snap owner))
    (C.Stats.owners stats);
  Alcotest.(check int) "total main memory agrees"
    (C.Stats.total_main_memory_accesses stats)
    (C.Stats.Snapshot.total_main_memory snap);
  Alcotest.(check int) "accesses = reads + writes" 3
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals snap))

let test_snapshot_immutable_under_later_accesses () =
  let cache = C.Cache.create tiny_config in
  ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:0);
  let snap = C.Stats.snapshot (C.Cache.stats cache) in
  for i = 1 to 10 do
    ignore (C.Cache.touch_line cache ~owner:1 ~write:true ~line_addr:(i * 16))
  done;
  C.Cache.flush cache;
  Alcotest.(check int) "snapshot frozen at capture" 1
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.totals snap));
  Alcotest.(check int) "unknown owner is zero" 0
    (C.Stats.Snapshot.accesses (C.Stats.Snapshot.owner snap 99))

(* Property: the simulator never reports more hits than lookups, and
   misses + hits = lookups. *)
let prop_stats_consistent =
  QCheck.Test.make ~count:100 ~name:"hits + misses = lookups"
    QCheck.(list_of_size (Gen.int_range 1 500) (pair (int_range 0 2048) bool))
    (fun ops ->
      let cache = C.Cache.create tiny_config in
      List.iter
        (fun (addr, write) ->
          ignore (C.Cache.touch_line cache ~owner:1 ~write ~line_addr:addr))
        ops;
      let c = C.Stats.owner_counters (C.Cache.stats cache) 1 in
      c.C.Stats.hits + c.C.Stats.misses = c.C.Stats.reads + c.C.Stats.writes)

(* Differential oracle for the simulation kernel: a naive per-set LRU
   list with dirty bits, driven event by event, against
   [Cache.access_batch] on random packed batches — random power-of-two
   geometries, writes, references spanning several lines, three owners,
   and a batch split at a random point (the clock must carry across
   batches).  Compared: per-owner reads, writes, misses and writebacks,
   the fill/spill sequence a next level would see, and the residency
   clean/dirty/fill/eviction/flush totals with an accumulator attached.
   [Cache.touch_line] is checked against the same model on the
   single-line path. *)

type ref_line = {
  r_line : int;
  r_owner : int;
  mutable r_dirty : bool;
  mutable r_start : int;
}

type ref_result = {
  reads : int array;
  writes : int array;
  misses : int array;
  writebacks : int array;
  clean : int array;
  dirty : int array;
  fills : int array;
  evictions : int array;
  flushes : int array;
  feed : (bool * int * int) list; (* (is_spill, owner, line), in order *)
}

let ref_owners = 4

let reference_lru ~assoc ~sets ~line_size events =
  let count () = Array.make ref_owners 0 in
  let r =
    {
      reads = count (); writes = count (); misses = count ();
      writebacks = count (); clean = count (); dirty = count ();
      fills = count (); evictions = count (); flushes = count (); feed = [];
    }
  in
  let feed = ref [] in
  let bump a i = a.(i) <- a.(i) + 1 in
  let close e now =
    let a = if e.r_dirty then r.dirty else r.clean in
    a.(e.r_owner) <- a.(e.r_owner) + (now - e.r_start)
  in
  let mru = Array.make sets [] in
  List.iteri
    (fun now (addr, size, owner, write) ->
      for line = addr / line_size to (addr + size - 1) / line_size do
        bump (if write then r.writes else r.reads) owner;
        let s = line mod sets in
        match List.find_opt (fun e -> e.r_line = line) mru.(s) with
        | Some e ->
            mru.(s) <- e :: List.filter (fun x -> x != e) mru.(s);
            if write && not e.r_dirty then begin
              close e now;
              e.r_start <- now;
              e.r_dirty <- true
            end
        | None ->
            bump r.misses owner;
            let resident =
              if List.length mru.(s) < assoc then mru.(s)
              else begin
                let victim = List.nth mru.(s) (assoc - 1) in
                if victim.r_dirty then begin
                  bump r.writebacks victim.r_owner;
                  feed := (true, victim.r_owner, victim.r_line) :: !feed
                end;
                close victim now;
                bump r.evictions victim.r_owner;
                List.filter (fun x -> x != victim) mru.(s)
              end
            in
            mru.(s) <-
              { r_line = line; r_owner = owner; r_dirty = write; r_start = now }
              :: resident;
            bump r.fills owner;
            feed := (false, owner, line) :: !feed
      done)
    events;
  let horizon = List.length events in
  Array.iter
    (List.iter (fun e ->
         if e.r_dirty then bump r.writebacks e.r_owner;
         close e horizon;
         bump r.flushes e.r_owner))
    mru;
  { r with feed = List.rev !feed }

let gen_lru_case =
  QCheck.Gen.(
    int_range 0 2 >>= fun assoc_log ->
    int_range 0 3 >>= fun sets_log ->
    int_range 3 5 >>= fun line_log ->
    int_range 1 300 >>= fun n ->
    list_repeat n
      (quad (int_range 0 2047) (int_range 1 96) (int_range 1 (ref_owners - 1))
         bool)
    >>= fun events ->
    int_range 0 n >>= fun split ->
    return (1 lsl assoc_log, 1 lsl sets_log, 1 lsl line_log, events, split))

let prop_matches_reference_lru =
  QCheck.Test.make ~count:300 ~name:"matches reference LRU model"
    (QCheck.make gen_lru_case)
    (fun (assoc, sets, line_size, events, split) ->
      let config =
        C.Config.make ~name:"random" ~associativity:assoc ~sets ~line:line_size
      in
      let expect = reference_lru ~assoc ~sets ~line_size events in
      let n = List.length events in
      let addrs = Array.of_list (List.map (fun (a, _, _, _) -> a) events) in
      let metas =
        Array.of_list
          (List.map
             (fun (_, size, owner, write) -> C.Cache.pack_access ~owner ~write ~size)
             events)
      in
      let drive ?fill ?spill cache =
        C.Cache.access_batch ?fill ?spill cache ~addrs ~metas ~pos:0 ~len:split;
        C.Cache.access_batch ?fill ?spill cache ~addrs ~metas ~pos:split
          ~len:(n - split);
        C.Cache.flush cache
      in
      let stats_match cache =
        List.for_all
          (fun owner ->
            let c = C.Stats.owner_counters (C.Cache.stats cache) owner in
            c.C.Stats.reads = expect.reads.(owner)
            && c.C.Stats.writes = expect.writes.(owner)
            && c.C.Stats.misses = expect.misses.(owner)
            && c.C.Stats.writebacks = expect.writebacks.(owner))
          (List.init ref_owners Fun.id)
      in
      (* The plain kernel: no hooks, no residency. *)
      let plain = C.Cache.create config in
      drive plain;
      (* Every hook on: next-level feed and a residency accumulator. *)
      let hooked = C.Cache.create config in
      let res = C.Residency.create ~bins:4 ~horizon:n () in
      C.Cache.attach_residency hooked res;
      let feed = ref [] in
      let fill ~owner ~line = feed := (false, owner, line) :: !feed in
      let spill ~owner ~line = feed := (true, owner, line) :: !feed in
      (* The flush runs at the horizon and spills in slot order; the
         model compares the in-batch sequence only. *)
      drive ~fill
        ~spill:(fun ~owner ~line ->
          if C.Cache.now hooked < n then spill ~owner ~line)
        hooked;
      let snap = C.Residency.snapshot res in
      let residency_match =
        List.for_all
          (fun owner ->
            let c = C.Residency.Snapshot.owner snap owner in
            c.C.Residency.clean_time = expect.clean.(owner)
            && c.C.Residency.dirty_time = expect.dirty.(owner)
            && c.C.Residency.fills = expect.fills.(owner)
            && c.C.Residency.evictions = expect.evictions.(owner)
            && c.C.Residency.flushes = expect.flushes.(owner))
          (List.init ref_owners Fun.id)
      in
      (* The single-line entry point against the same model. *)
      let line_events =
        List.map (fun (addr, _, owner, write) -> (addr, 1, owner, write)) events
      in
      let line_expect = reference_lru ~assoc ~sets ~line_size line_events in
      let single = C.Cache.create config in
      let mru = Array.make sets [] in
      let hits_match =
        List.for_all
          (fun (addr, _, owner, write) ->
            let line = addr / line_size in
            let s = line mod sets in
            let expected_hit = List.mem line mru.(s) in
            let rest = List.filter (fun l -> l <> line) mru.(s) in
            mru.(s) <- List.filteri (fun i _ -> i < assoc) (line :: rest);
            C.Cache.touch_line single ~owner ~write ~line_addr:addr = expected_hit)
          events
      in
      C.Cache.flush single;
      let single_misses_match =
        List.for_all
          (fun owner ->
            let c = C.Stats.owner_counters (C.Cache.stats single) owner in
            c.C.Stats.misses = line_expect.misses.(owner)
            && c.C.Stats.writebacks = line_expect.writebacks.(owner))
          (List.init ref_owners Fun.id)
      in
      stats_match plain && stats_match hooked
      && List.rev !feed = expect.feed
      && residency_match && hits_match && single_misses_match)

let suite =
  [
    Alcotest.test_case "config capacity" `Quick test_config_capacity;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config rejects all bad geometry" `Quick
      test_config_rejects_all_bad_geometry;
    Alcotest.test_case "is_power_of_two" `Quick test_is_power_of_two;
    Alcotest.test_case "stats merge" `Quick test_stats_merge;
    Alcotest.test_case "stats sum equals combined run" `Quick
      test_stats_sum_equals_combined_run;
    Alcotest.test_case "Table IV presets" `Quick test_table_iv_presets;
    Alcotest.test_case "named capacities match names" `Quick
      test_named_capacity_matches_name;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "set mapping" `Quick test_set_mapping;
    Alcotest.test_case "writeback on dirty eviction" `Quick
      test_writeback_on_dirty_eviction;
    Alcotest.test_case "clean eviction no writeback" `Quick
      test_clean_eviction_no_writeback;
    Alcotest.test_case "writeback attribution" `Quick
      test_writeback_attributed_to_line_owner;
    Alcotest.test_case "access spans lines" `Quick test_access_spans_lines;
    Alcotest.test_case "flush counts dirty lines" `Quick
      test_flush_counts_dirty;
    Alcotest.test_case "invalidate drops silently" `Quick
      test_invalidate_drops_silently;
    Alcotest.test_case "resident lines" `Quick test_resident_lines;
    Alcotest.test_case "streaming miss count" `Quick test_streaming_miss_count;
    Alcotest.test_case "no capacity misses when fits" `Quick
      test_working_set_fits_no_capacity_misses;
    Alcotest.test_case "stats totals" `Quick test_stats_totals;
    Alcotest.test_case "snapshot matches live counters" `Quick
      test_snapshot_matches_live_counters;
    Alcotest.test_case "snapshot immutable" `Quick
      test_snapshot_immutable_under_later_accesses;
    QCheck_alcotest.to_alcotest prop_stats_consistent;
    QCheck_alcotest.to_alcotest prop_matches_reference_lru;
  ]
