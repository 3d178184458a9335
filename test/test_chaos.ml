(* Chaos campaigns and the Fault_model interface: deterministic,
   bit-identical at any job count, clean at kill fraction 0, and running
   on the same engine as bit-flip injection. *)

module Fi = Kernels.Fault_injection
module Fm = Core.Fault_model
module Sg = Core.Service_graph

let report () =
  match
    Core.Chaos.run ~trials:200 (Core.Service_workloads.workload ())
  with
  | Some r -> r
  | None -> Alcotest.fail "service_graph workload has no topology"

let row =
  Alcotest.testable
    (fun ppf (r : Core.Chaos.row) ->
      Format.fprintf ppf "%s: %d/%d avail %.4f dvf %.4g" r.Core.Chaos.endpoint
        r.Core.Chaos.lost r.Core.Chaos.trials r.Core.Chaos.availability
        r.Core.Chaos.dvf)
    ( = )

(* --- determinism and parallel bit-identity --- *)

let test_deterministic () =
  let a = report () and b = report () in
  Alcotest.(check (list row)) "same rows" a.Core.Chaos.rows b.Core.Chaos.rows;
  Alcotest.(check bool) "same report" true (a = b)

let test_jobs_bit_identity () =
  let w = Core.Service_workloads.workload () in
  let run jobs =
    match Core.Chaos.run ~trials:200 ~jobs w with
    | Some r -> r
    | None -> Alcotest.fail "no topology"
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check (list row))
        (Printf.sprintf "-j %d rows" jobs)
        serial.Core.Chaos.rows r.Core.Chaos.rows;
      Alcotest.(check string)
        (Printf.sprintf "-j %d table" jobs)
        (Dvf_util.Table.render (Core.Chaos.to_table serial))
        (Dvf_util.Table.render (Core.Chaos.to_table r)))
    [ 2; 8 ]

let test_seed_changes_tallies () =
  let w = Core.Service_workloads.workload () in
  let run seed =
    match Core.Chaos.run ~seed ~trials:200 w with
    | Some r -> r
    | None -> Alcotest.fail "no topology"
  in
  Alcotest.(check bool) "different seeds, different rows" true
    ((run 1).Core.Chaos.rows <> (run 2).Core.Chaos.rows)

(* --- identity kill: fraction 0 is a clean run --- *)

let test_identity_kill_is_clean () =
  let w = Core.Service_workloads.workload () in
  let r =
    match Core.Chaos.run ~trials:100 ~kill_fraction:0.0 w with
    | Some r -> r
    | None -> Alcotest.fail "no topology"
  in
  Alcotest.(check int) "nothing killed" 0 r.Core.Chaos.killed_per_trial;
  List.iter
    (fun (row : Core.Chaos.row) ->
      Alcotest.(check int) (row.Core.Chaos.endpoint ^ " lost") 0
        row.Core.Chaos.lost;
      Alcotest.(check (float 0.0))
        (row.Core.Chaos.endpoint ^ " availability")
        1.0 row.Core.Chaos.availability)
    r.Core.Chaos.rows;
  Alcotest.(check (float 0.0)) "no requests lost" 0.0
    r.Core.Chaos.requests_lost

let test_total_kill_loses_everything () =
  let w = Core.Service_workloads.workload () in
  let r =
    match Core.Chaos.run ~trials:50 ~kill_fraction:1.0 w with
    | Some r -> r
    | None -> Alcotest.fail "no topology"
  in
  List.iter
    (fun (row : Core.Chaos.row) ->
      Alcotest.(check (float 0.0))
        (row.Core.Chaos.endpoint ^ " availability")
        0.0 row.Core.Chaos.availability)
    r.Core.Chaos.rows

let test_kill_count () =
  Alcotest.(check int) "10% of 13 is 1" 1
    (Fm.kill_count ~kill_fraction:0.1 ~components:13);
  Alcotest.(check int) "0 kills nothing" 0
    (Fm.kill_count ~kill_fraction:0.0 ~components:13);
  Alcotest.(check int) "1 kills everything" 13
    (Fm.kill_count ~kill_fraction:1.0 ~components:13);
  Alcotest.check_raises "rejects 1.5"
    (Invalid_argument "Fault_model.kill_count: kill fraction 1.5 not in [0, 1]")
    (fun () -> ignore (Fm.kill_count ~kill_fraction:1.5 ~components:13))

(* --- Fault_model conformance: both implementations obey the contract --- *)

let models () =
  let vm = Fi.vm_injector Kernels.Vm.verification in
  [ Fm.of_injector vm; Fm.component_kill Sg.social_network ]

let test_model_targets_and_defaults () =
  List.iter
    (fun (m : Fm.t) ->
      Alcotest.(check bool) (m.Fm.model ^ " has targets") true (m.Fm.targets <> []);
      Alcotest.(check bool)
        (m.Fm.model ^ " positive default trials")
        true (m.Fm.default_trials > 0))
    (models ())

let test_model_trial_determinism () =
  (* Same derived RNG, same (target, trial) cell: outcome and stamp must
     repeat, and the stamp stays in [0, 1] — the bit-identity contract
     the parallel engine relies on. *)
  List.iter
    (fun (m : Fm.t) ->
      List.iteri
        (fun target _ ->
          for trial = 0 to 4 do
            let go () =
              m.Fm.trial ~target
                (Fi.trial_rng ~seed:99 ~structure_index:target ~trial)
            in
            let o1, s1 = go () in
            let o2, s2 = go () in
            Alcotest.(check bool)
              (Printf.sprintf "%s[%d] trial %d repeats" m.Fm.model target trial)
              true
              (o1 = o2 && s1 = s2);
            Alcotest.(check bool)
              (Printf.sprintf "%s[%d] stamp in range" m.Fm.model target)
              true
              (s1 >= 0.0 && s1 <= 1.0)
          done)
        m.Fm.targets)
    (models ())

let test_model_engine_parallel_identity () =
  List.iter
    (fun (m : Fm.t) ->
      let run jobs =
        Core.Injection.run_model ~trials:60 ~jobs ~workload:"conformance" m
      in
      Alcotest.(check bool)
        (m.Fm.model ^ " -j 2 matches -j 1")
        true
        (run 1 = run 2))
    (models ())

let test_of_injector_matches_inject () =
  (* The wrapped bit-flip model through the generic engine reproduces the
     historical injection campaigns bit for bit. *)
  let w = Core.Workloads.vm in
  let result =
    match Core.Injection.run ~trials:50 w with
    | Some r -> r
    | None -> Alcotest.fail "VM has no injector"
  in
  let inj =
    match w.Core.Workload.injector with
    | Some mk -> mk ()
    | None -> Alcotest.fail "VM has no injector"
  in
  let campaigns =
    Core.Injection.run_model ~trials:50 ~workload:w.Core.Workload.name
      (Fm.of_injector inj)
  in
  Alcotest.(check bool) "same campaigns" true
    (result.Core.Injection.campaigns = campaigns)

(* --- serve: the chaos op renders byte-identically to the CLI --- *)

let test_serve_chaos_round_trip () =
  let module Json = Dvf_util.Json in
  let srv = Core.Serve.create ~jobs:1 ~workloads:[] () in
  Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv) @@ fun () ->
  let response =
    match
      Core.Serve.handle_line srv {|{"id":1,"op":"chaos","trials":200}|}
    with
    | Some r -> r
    | None -> Alcotest.fail "no response"
  in
  let resp =
    match Json.of_string response with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  (match Json.member "ok" resp with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail ("chaos op failed: " ^ response));
  let decoded =
    Dvf_util.Row.of_json Core.Chaos.report
      (Option.get (Json.member "result" resp))
  in
  let direct = report () in
  Alcotest.(check string) "tables byte-identical"
    (Dvf_util.Table.render (Core.Chaos.to_table direct))
    (Dvf_util.Table.render (Core.Chaos.to_table decoded));
  Alcotest.(check bool) "reports equal" true (decoded = direct)

let test_csv_shape () =
  let r = report () in
  let csv = Core.Chaos.to_csv [ r ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per endpoint"
    (1 + List.length r.Core.Chaos.rows)
    (List.length lines);
  Alcotest.(check string) "header"
    "workload,endpoint,weight,trials,lost,availability,ci_lo,ci_hi,dvf"
    (List.hd lines);
  (* Every byte, against a hand-written printf of the same layout. *)
  let expected =
    String.concat ""
      ((List.hd lines ^ "\n")
      :: List.map
           (fun (x : Core.Chaos.row) ->
             let lo, hi = x.Core.Chaos.ci in
             Printf.sprintf "%s,%s,%.17g,%d,%d,%.17g,%.17g,%.17g,%.17g\n"
               r.Core.Chaos.workload x.Core.Chaos.endpoint x.Core.Chaos.weight
               x.Core.Chaos.trials x.Core.Chaos.lost x.Core.Chaos.availability
               lo hi x.Core.Chaos.dvf)
           r.Core.Chaos.rows)
  in
  Alcotest.(check string) "bytes" expected csv

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "bit-identical at -j 1/2/8" `Quick
      test_jobs_bit_identity;
    Alcotest.test_case "seed changes tallies" `Quick test_seed_changes_tallies;
    Alcotest.test_case "kill fraction 0 is a clean run" `Quick
      test_identity_kill_is_clean;
    Alcotest.test_case "kill fraction 1 loses everything" `Quick
      test_total_kill_loses_everything;
    Alcotest.test_case "kill_count rounding and bounds" `Quick test_kill_count;
    Alcotest.test_case "models expose targets and defaults" `Quick
      test_model_targets_and_defaults;
    Alcotest.test_case "model trials are deterministic" `Quick
      test_model_trial_determinism;
    Alcotest.test_case "engine parallel identity per model" `Quick
      test_model_engine_parallel_identity;
    Alcotest.test_case "of_injector matches dvf inject" `Quick
      test_of_injector_matches_inject;
    Alcotest.test_case "serve chaos op round-trips" `Quick
      test_serve_chaos_round_trip;
    Alcotest.test_case "csv shape" `Quick test_csv_shape;
  ]
