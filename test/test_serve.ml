(* Core.Serve and the dvf-query protocol.

   In-process tests drive handle_line/handle_batch directly and check
   the responses against the one-shot APIs they wrap (bit-identity of
   decoded rows).  The end-to-end test spawns the real `dvf serve`
   binary over pipes and asserts the daemon's verify rows equal the
   library's — the same comparison the CI smoke makes against `dvf
   verify` output. *)

module J = Dvf_util.Json
module Row = Dvf_util.Row

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let with_server ?(workloads = [ Core.Workloads.vm; Core.Workloads.mc ]) f =
  let srv = Core.Serve.create ~jobs:2 ~workloads () in
  Fun.protect ~finally:(fun () -> Core.Serve.shutdown srv) (fun () -> f srv)

let parse_exn line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad response %S: %s" line e

let field name = function
  | J.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "response missing %S" name)
  | _ -> Alcotest.fail "response is not an object"

let respond srv request =
  match Core.Serve.handle_line srv request with
  | Some line -> parse_exn line
  | None -> Alcotest.failf "no response to %S" request

let check_envelope response =
  Alcotest.(check string) "schema" Core.Serve.schema
    (match field "schema" response with J.Str s -> s | _ -> "?");
  Alcotest.(check int) "schema_version" Core.Serve.schema_version
    (match field "schema_version" response with J.Int i -> i | _ -> -1)

let expect_ok response =
  check_envelope response;
  (match field "ok" response with
  | J.Bool true -> ()
  | _ -> Alcotest.failf "expected ok response, got %s" (J.to_string response));
  field "result" response

let expect_error response =
  check_envelope response;
  (match field "ok" response with
  | J.Bool false -> ()
  | _ -> Alcotest.failf "expected error response, got %s" (J.to_string response));
  match field "error" response with
  | J.Str msg -> msg
  | _ -> Alcotest.fail "error response without message"

(* --- basic protocol --- *)

let test_ping () =
  with_server (fun srv ->
      let response = respond srv {|{"id":42,"op":"ping"}|} in
      Alcotest.(check bool) "id echoed" true (field "id" response = J.Int 42);
      Alcotest.(check bool) "pong" true
        (field "pong" (expect_ok response) = J.Bool true))

let test_workloads () =
  with_server (fun srv ->
      let result = expect_ok (respond srv {|{"id":1,"op":"workloads"}|}) in
      match field "workloads" result with
      | J.List names ->
          Alcotest.(check (list string))
            "served names" [ "VM"; "MC" ]
            (List.map (function J.Str s -> s | _ -> "?") names)
      | _ -> Alcotest.fail "workloads is not a list")

let test_malformed_line () =
  with_server (fun srv ->
      let response = respond srv "this is not json" in
      let msg = expect_error response in
      Alcotest.(check bool) "id is null" true (field "id" response = J.Null);
      Alcotest.(check bool) "message mentions the parse" true
        (String.length msg > 0))

let test_unknown_op () =
  with_server (fun srv ->
      let msg = expect_error (respond srv {|{"id":1,"op":"bogus"}|}) in
      Alcotest.(check bool) "names the op" true (contains_substring msg "bogus"))

let test_unknown_workload () =
  with_server (fun srv ->
      let msg =
        expect_error (respond srv {|{"id":1,"op":"verify","workload":"nope"}|})
      in
      Alcotest.(check bool) "lists served workloads" true
        (contains_substring msg "VM"))

let test_blank_line_keepalive () =
  with_server (fun srv ->
      Alcotest.(check bool) "blank" true (Core.Serve.handle_line srv "" = None);
      Alcotest.(check bool) "whitespace" true
        (Core.Serve.handle_line srv "   \r" = None))

(* --- op results equal the one-shot APIs --- *)

let test_verify_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok (respond srv {|{"id":1,"op":"verify","workload":"VM"}|})
      in
      let served = Row.rows_of_result Core.Verify.row result in
      let direct =
        Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = run_all" true (served = direct))

let test_levels_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv {|{"id":1,"op":"levels","workload":"VM","levels":2}|})
      in
      let served = Row.rows_of_result Core.Verify.level_row result in
      let direct =
        Core.Verify.run_all_levels ~jobs:1 ~levels:2
          ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = run_all_levels" true (served = direct))

let test_dvf_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok (respond srv {|{"id":1,"op":"dvf","workload":"VM"}|})
      in
      let served = Row.rows_of_result Core.Profile.row result in
      let direct =
        Core.Profile.run_all ~workloads:[ Core.Workloads.vm ] ()
      in
      Alcotest.(check bool) "rows = Profile.run_all" true (served = direct))

let test_sweep_rows_bit_identical () =
  with_server (fun srv ->
      let result =
        expect_ok
          (respond srv
             {|{"id":1,"op":"sweep","workload":"VM","capacities":[8192,65536]}|})
      in
      let served = Row.rows_of_result Core.Experiments.sweep_row result in
      (* The daemon sweeps its warm verification capture (see the mli),
         so the reference sweep must run over the same instance. *)
      let instance = Core.Workloads.verification_instance Core.Workloads.vm in
      let capture = Core.Verify.capture instance in
      let direct =
        Core.Experiments.cache_sweep ~jobs:1 ~capacities:[ 8192; 65536 ]
          ~simulate:true ~capture instance
      in
      Alcotest.(check bool) "rows = cache_sweep" true (served = direct))

let test_sweep_requires_workload () =
  with_server (fun srv ->
      let msg = expect_error (respond srv {|{"id":1,"op":"sweep"}|}) in
      Alcotest.(check bool) "asks for a workload" true
        (contains_substring msg "workload"))

(* --- batches --- *)

let test_batch_order_and_equivalence () =
  with_server (fun srv ->
      let requests =
        [
          {|{"id":0,"op":"ping"}|};
          {|{"id":1,"op":"verify","workload":"VM"}|};
          {|{"id":2,"op":"workloads"}|};
          {|{"id":3,"op":"bogus"}|};
          {|{"id":4,"op":"dvf","workload":"MC"}|};
        ]
      in
      let batched = Core.Serve.handle_batch srv requests in
      Alcotest.(check int) "five responses" 5 (List.length batched);
      List.iteri
        (fun i line ->
          Alcotest.(check bool)
            (Printf.sprintf "id %d in order" i)
            true
            (field "id" (parse_exn line) = J.Int i))
        batched;
      (* A batch is just the serial map, faster. *)
      let serial = List.filter_map (Core.Serve.handle_line srv) requests in
      Alcotest.(check (list string)) "batch = serial" serial batched)

(* --- row codecs round-trip --- *)

let roundtrip name decl rows =
  List.iter
    (fun row ->
      Alcotest.(check bool) name true
        (Row.of_json decl (Row.to_json decl row) = row))
    rows

let test_row_codecs_roundtrip () =
  let vm = [ Core.Workloads.vm ] in
  roundtrip "cache config" Cachesim.Config.row
    (Cachesim.Config.verification_set @ Cachesim.Config.profiling_set);
  roundtrip "verify row" Core.Verify.row
    (Core.Verify.run_all ~jobs:1 ~workloads:vm ());
  roundtrip "profile row (exact floats)" Core.Profile.row
    (Core.Profile.run_all ~workloads:vm ());
  roundtrip "level row" Core.Verify.level_row
    (Core.Verify.run_all_levels ~jobs:1 ~levels:2 ~workloads:vm ());
  roundtrip "time row" Core.Verify.time_row
    (Core.Verify.run_all_timed ~jobs:1 ~levels:2 ~bins:7 ~workloads:vm ());
  let sweep =
    {
      Core.Experiments.capacity = 8192;
      sweep_cache = Cachesim.Config.small_verification;
      dvf_a = 0.1 +. 0.2;
      n_ha = 1.0 /. 3.0;
      sim_n_ha = Some 1e-300;
    }
  in
  roundtrip "sweep row" Core.Experiments.sweep_row
    [ sweep; { sweep with Core.Experiments.sim_n_ha = None } ];
  let report =
    match Core.Chaos.run ~trials:50 (Core.Service_workloads.workload ()) with
    | Some r -> r
    | None -> Alcotest.fail "service_graph workload has no topology"
  in
  Alcotest.(check bool) "chaos report has a rho" true
    (report.Core.Chaos.rho <> None);
  roundtrip "chaos report" Core.Chaos.report
    [ report; { report with Core.Chaos.rho = None } ];
  roundtrip "tape info" Core.Serve.tape_info
    [
      {
        Core.Serve.ti_version = 3;
        ti_workload = "VM";
        ti_size = "n=\"64\", \\ tab\t";
        ti_seed = -1;
        ti_chunk_events = 65536;
        ti_events = max_int;
        ti_chunks = 0;
        ti_regions = 2;
      };
    ]

(* --- decoders raise only Failure, naming the row and the field --- *)

let expect_failure ~what ~mentions decode =
  match decode () with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Failure msg ->
      List.iter
        (fun needle ->
          if not (contains_substring msg needle) then
            Alcotest.failf "%s: %S does not mention %S" what msg needle)
        mentions

let test_decoder_contract () =
  let row =
    List.hd (Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] ())
  in
  let with_member k v = function
    | J.Obj kvs ->
        J.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
    | j -> j
  in
  let json = Row.to_json Core.Verify.row row in
  let cache = Option.get (J.member "cache" json) in
  let decode j () = Row.of_json Core.Verify.row j in
  expect_failure ~what:"sets 3"
    ~mentions:[ "verify row"; "cache"; "sets" ]
    (decode (with_member "cache" (with_member "sets" (J.Int 3) cache) json));
  expect_failure ~what:"non-object" ~mentions:[ "verify row" ]
    (decode (J.List [ json ]));
  expect_failure ~what:"missing field"
    ~mentions:[ "verify row"; "modeled" ]
    (decode
       (match json with
       | J.Obj kvs -> J.Obj (List.remove_assoc "modeled" kvs)
       | j -> j));
  expect_failure ~what:"mistyped field"
    ~mentions:[ "verify row"; "structure" ]
    (decode (with_member "structure" (J.Float 1.0) json));
  expect_failure ~what:"rows not a list" ~mentions:[ "verify row"; "rows" ]
    (fun () -> Row.rows_of_result Core.Verify.row (J.Obj [ ("rows", J.Null) ]))

(* --- a timed request cannot ask for an unbounded histogram --- *)

let test_timed_bins_bounded () =
  with_server ~workloads:[ Core.Workloads.vm ] (fun srv ->
      let msg =
        expect_error
          (respond srv
             (Printf.sprintf
                {|{"id":1,"op":"timed","workload":"VM","bins":%d}|}
                (Cachesim.Residency.max_bins + 1)))
      in
      Alcotest.(check bool) "names bins" true (contains_substring msg "bins"))

(* --- sweep capacities and chaos trials are bounded before anything is
   allocated: serve answers ok:false, the CLI exits 1 --- *)

let cli_exit_code args =
  let exe = "../bin/dvf_cli.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> -1

let test_admission_bounds () =
  let too_large = Core.Experiments.max_sweep_bytes + 1 in
  let too_many =
    List.init (Core.Experiments.max_sweep_points + 1) (fun _ -> 4096)
  in
  let too_many_trials = Core.Injection.max_trials + 1 in
  with_server ~workloads:[ Core.Workloads.vm ] (fun srv ->
      let sweep caps =
        Printf.sprintf
          {|{"id":1,"op":"sweep","workload":"VM","simulate":false,"capacities":[%s]}|}
          (String.concat "," (List.map string_of_int caps))
      in
      List.iter
        (fun (what, request) ->
          let msg = expect_error (respond srv request) in
          let names = if what = "trials" then "trials" else "capacities" in
          Alcotest.(check bool) (what ^ ": " ^ msg) true
            (contains_substring msg names))
        [
          ("capacity", sweep [ too_large ]);
          ("length", sweep too_many);
          ("sum", sweep [ Core.Experiments.max_sweep_bytes; 4096 ]);
          ( "trials",
            Printf.sprintf {|{"id":1,"op":"chaos","trials":%d}|} too_many_trials );
        ]);
  if Sys.file_exists "../bin/dvf_cli.exe" then
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args) 1 (cli_exit_code args))
      [
        [ "query"; "--op"; "sweep"; "--no-simulate"; "--capacities";
          string_of_int too_large; "VM" ];
        [ "query"; "--op"; "sweep"; "--no-simulate"; "--capacities";
          String.concat "," (List.map string_of_int too_many); "VM" ];
        [ "query"; "--op"; "chaos"; "--trials"; string_of_int too_many_trials ];
        [ "chaos"; "--trials"; string_of_int too_many_trials ];
        [ "inject"; "--trials"; string_of_int too_many_trials ];
      ]

(* --- fuzz: mutated requests and responses --- *)

let fuzz_seeds =
  [
    {|{"id":1,"op":"ping"}|};
    {|{"id":2,"op":"workloads"}|};
    {|{"id":3,"op":"stats"}|};
    {|{"id":4,"op":"verify","workload":"VM"}|};
    {|{"id":5,"op":"levels","workload":"VM","levels":2}|};
    {|{"id":6,"op":"timed","workload":"VM","levels":1,"bins":4}|};
    {|{"id":7,"op":"dvf","workload":"VM"}|};
    {|{"id":8,"op":"sweep","workload":"VM","capacities":[8192]}|};
  ]

(* Digits may inflate "bins", "levels" or a capacity: every integer
   parameter is bounded before it sizes an allocation or a loop. *)
let fuzz_alphabet =
  List.init 26 (fun i -> Char.chr (Char.code 'a' + i))
  @ List.init 10 (fun i -> Char.chr (Char.code '0' + i))
  @ [ 'V'; 'M'; ' '; '"'; '{'; '}'; '['; ']'; ','; ':'; '.'; '-'; '+';
      '\\'; '\r'; '\000'; '\255' ]

let replace s i c =
  let b = Bytes.of_string s in
  Bytes.set b (i mod Bytes.length b) c;
  Bytes.to_string b

(* One non-blank request line gets exactly one response line whose
   "ok" is a boolean; a blank one gets none. *)
let check_one_response srv line =
  match Core.Serve.handle_line srv line with
  | None -> String.trim line = ""
  | Some resp -> (
      (not (String.contains resp '\n'))
      &&
      match J.of_string resp with
      | Ok j -> ( match J.member "ok" j with Some (J.Bool _) -> true | _ -> false)
      | Error _ -> false)

let decoders =
  [
    (fun r -> ignore (Row.rows_of_result Core.Verify.row r));
    (fun r -> ignore (Row.rows_of_result Core.Verify.level_row r));
    (fun r -> ignore (Row.rows_of_result Core.Verify.time_row r));
    (fun r -> ignore (Row.rows_of_result Core.Profile.row r));
    (fun r -> ignore (Row.rows_of_result Core.Experiments.sweep_row r));
    (fun r -> ignore (Row.of_json Core.Chaos.report r));
    (fun r -> ignore (Row.of_json Core.Serve.tape_info r));
  ]

(* Every decoder, on whatever [result] a (mutated) response line holds,
   either decodes or raises [Failure]; any other exception escapes. *)
let check_decoders response =
  (match J.of_string response with
  | Ok j -> (
      match J.member "result" j with
      | Some r ->
          List.iter (fun d -> try d r with Failure _ -> ()) decoders
      | None -> ())
  | Error _ -> ());
  true

let test_fuzz () =
  with_server ~workloads:[ Core.Workloads.vm ] (fun srv ->
      let seeds =
        Array.of_list
          (List.map
             (fun req ->
               match Core.Serve.handle_line srv req with
               | Some resp -> (req, resp)
               | None -> Alcotest.failf "no response to %S" req)
             fuzz_seeds)
      in
      Array.iter
        (fun (req, resp) ->
          for n = 0 to String.length req do
            if not (check_one_response srv (String.sub req 0 n)) then
              Alcotest.failf "request %S cut at %d" req n
          done;
          for n = 0 to String.length resp do
            ignore (check_decoders (String.sub resp 0 n))
          done)
        seeds;
      let gen =
        QCheck.Gen.(
          triple
            (int_bound (Array.length seeds - 1))
            (int_bound 4095) (oneofl fuzz_alphabet))
      in
      let print (k, i, c) = Printf.sprintf "seed %d, byte %d := %C" k i c in
      let check ~count ~name prop =
        QCheck.Test.check_exn ~rand:(Random.State.make [| 15 |])
          (QCheck.Test.make ~count ~name (QCheck.make ~print gen) prop)
      in
      (* Mutated requests may run whole ops; decoding is cheap enough to
         try many more mutated responses. *)
      check ~count:400 ~name:"serve: single-byte request mutations"
        (fun (k, i, c) -> check_one_response srv (replace (fst seeds.(k)) i c));
      check ~count:20_000 ~name:"decoders: single-byte response mutations"
        (fun (k, i, c) -> check_decoders (replace (snd seeds.(k)) i c)))

(* --- tape info (the dvf tape info payload) --- *)

let test_tape_info () =
  let path = Printf.sprintf "serve_tape_info_%d.dvftape" (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let module Mt = Memtrace in
      let registry = Mt.Region.create () in
      ignore (Mt.Region.register registry ~name:"A" ~elements:256 ~elem_size:8);
      ignore (Mt.Region.register registry ~name:"B" ~elements:64 ~elem_size:4);
      let tape = Mt.Tape.create ~chunk_events:64 () in
      for i = 0 to 199 do
        Mt.Tape.append tape (Mt.Event.read ~owner:1 ~addr:(i * 32) ~size:4)
      done;
      Mt.Tape_io.save ~path
        ~meta:{ Mt.Tape_io.workload = "VM"; size = "n=64"; seed = 3 }
        ~registry ~tape;
      let info =
        match Core.Serve.tape_info_of_file path with
        | Ok i -> i
        | Error e ->
            Alcotest.failf "tape_info_of_file: %s" (Mt.Tape_io.error_to_string e)
      in
      Alcotest.(check int) "version" Mt.Tape_io.format_version
        info.Core.Serve.ti_version;
      Alcotest.(check string) "workload" "VM" info.Core.Serve.ti_workload;
      Alcotest.(check int) "events" 200 info.Core.Serve.ti_events;
      Alcotest.(check int) "chunks" 4 info.Core.Serve.ti_chunks;
      Alcotest.(check int) "regions" 2 info.Core.Serve.ti_regions;
      Alcotest.(check int) "chunk capacity" (Mt.Tape.chunk_events tape)
        info.Core.Serve.ti_chunk_events;
      Alcotest.(check int) "seed" 3 info.Core.Serve.ti_seed;
      (* The codec round-trips exactly and the JSON line is stable. *)
      let json = Row.to_json Core.Serve.tape_info info in
      Alcotest.(check bool) "json round-trip" true
        (Row.of_json Core.Serve.tape_info json = info);
      Alcotest.(check string) "json encoding stable"
        (J.to_string ~indent:false json)
        (J.to_string ~indent:false (Row.to_json Core.Serve.tape_info info));
      (* The rendered table is byte-stable across loads of the file. *)
      let render i = Dvf_util.Table.render (Core.Serve.tape_info_table i) in
      match Core.Serve.tape_info_of_file path with
      | Ok again -> Alcotest.(check string) "table stable" (render info) (render again)
      | Error e ->
          Alcotest.failf "second load: %s" (Mt.Tape_io.error_to_string e))

(* --- Json.parse_line (the protocol's framing helper) --- *)

let test_json_parse_line () =
  let ok = function Ok v -> v | Error e -> Alcotest.failf "parse_line: %s" e in
  Alcotest.(check bool) "blank is None" true (ok (J.parse_line "") = None);
  Alcotest.(check bool) "whitespace is None" true
    (ok (J.parse_line " \t ") = None);
  Alcotest.(check bool) "CR stripped" true
    (ok (J.parse_line "{\"a\":1}\r") = Some (J.Obj [ ("a", J.Int 1) ]));
  Alcotest.(check bool) "document parsed" true
    (ok (J.parse_line "[1,2]") = Some (J.List [ J.Int 1; J.Int 2 ]));
  (match J.parse_line "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.parse_line "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* --- end to end: the real binary over pipes --- *)

let test_end_to_end_binary () =
  let exe = "../bin/dvf_cli.exe" in
  if not (Sys.file_exists exe) then
    Alcotest.skip ()
  else begin
    let req_read, req_write = Unix.pipe ~cloexec:false () in
    let resp_read, resp_write = Unix.pipe ~cloexec:false () in
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        [| exe; "serve"; "-j"; "1"; "VM" |]
        req_read resp_write dev_null
    in
    Unix.close req_read;
    Unix.close resp_write;
    Unix.close dev_null;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close req_write with Unix.Unix_error _ -> ());
        (try Unix.close resp_read with Unix.Unix_error _ -> ());
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let requests =
          {|{"id":1,"op":"ping"}
{"id":2,"op":"verify","workload":"VM"}
|}
        in
        let len = String.length requests in
        Alcotest.(check int) "request written" len
          (Unix.write_substring req_write requests 0 len);
        (* Closing stdin after the requests lets the daemon exit cleanly
           once it has answered. *)
        Unix.close req_write;
        let ic = Unix.in_channel_of_descr resp_read in
        let ping = parse_exn (input_line ic) in
        Alcotest.(check bool) "daemon pong" true
          (field "pong" (expect_ok ping) = J.Bool true);
        let verify = parse_exn (input_line ic) in
        let served =
          Row.rows_of_result Core.Verify.row (expect_ok verify)
        in
        let direct =
          Core.Verify.run_all ~jobs:1 ~workloads:[ Core.Workloads.vm ] ()
        in
        Alcotest.(check bool) "daemon rows = library rows" true
          (served = direct))
  end

let suite =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "workloads" `Quick test_workloads;
    Alcotest.test_case "malformed line" `Quick test_malformed_line;
    Alcotest.test_case "unknown op" `Quick test_unknown_op;
    Alcotest.test_case "unknown workload" `Quick test_unknown_workload;
    Alcotest.test_case "blank line keep-alive" `Quick test_blank_line_keepalive;
    Alcotest.test_case "verify rows bit-identical" `Quick
      test_verify_rows_bit_identical;
    Alcotest.test_case "levels rows bit-identical" `Quick
      test_levels_rows_bit_identical;
    Alcotest.test_case "dvf rows bit-identical" `Quick
      test_dvf_rows_bit_identical;
    Alcotest.test_case "sweep rows bit-identical" `Quick
      test_sweep_rows_bit_identical;
    Alcotest.test_case "sweep requires a workload" `Quick
      test_sweep_requires_workload;
    Alcotest.test_case "batch order and equivalence" `Quick
      test_batch_order_and_equivalence;
    Alcotest.test_case "row codecs round-trip" `Quick test_row_codecs_roundtrip;
    Alcotest.test_case "decoders raise only Failure" `Quick
      test_decoder_contract;
    Alcotest.test_case "timed bins bounded" `Quick test_timed_bins_bounded;
    Alcotest.test_case "sweep capacities and chaos trials bounded" `Quick
      test_admission_bounds;
    Alcotest.test_case "fuzz: mutated requests and responses" `Quick
      test_fuzz;
    Alcotest.test_case "tape info" `Quick test_tape_info;
    Alcotest.test_case "Json.parse_line" `Quick test_json_parse_line;
    Alcotest.test_case "end-to-end: dvf serve over pipes" `Quick
      test_end_to_end_binary;
  ]
