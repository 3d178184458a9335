type t = {
  name : string;
  associativity : int;
  sets : int;
  line : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The simulator indexes sets with [line land (sets - 1)] and splits
   references with a line-size shift, so non-power-of-two [sets] or [line]
   would silently alias sets and split lines inconsistently.  Reject them
   here, with the offending value in the message, so every construction
   site fails loudly instead. *)
let make ~name ~associativity ~sets ~line =
  if associativity <= 0 then
    invalid_arg
      (Printf.sprintf "Config.make: associativity must be positive (got %d)"
         associativity);
  if not (is_power_of_two sets) then
    invalid_arg
      (Printf.sprintf "Config.make: sets must be a positive power of two (got %d)"
         sets);
  if not (is_power_of_two line) then
    invalid_arg
      (Printf.sprintf "Config.make: line must be a positive power of two (got %d)"
         line);
  { name; associativity; sets; line }

let row =
  Dvf_util.Row.make "cache config"
    Dvf_util.Row.[
      field "name" Str (fun c -> c.name);
      field "associativity" Int (fun c -> c.associativity);
      field "sets" Int (fun c -> c.sets);
      field "line" Int (fun c -> c.line);
    ]
    (fun name associativity sets line -> make ~name ~associativity ~sets ~line)

let capacity t = t.associativity * t.sets * t.line
let blocks t = t.associativity * t.sets

let small_verification =
  make ~name:"Small (Verification)" ~associativity:4 ~sets:64 ~line:32

let large_verification =
  make ~name:"Large (Verification)" ~associativity:16 ~sets:4096 ~line:64

let profiling_16kb = make ~name:"16KB" ~associativity:2 ~sets:1024 ~line:8
let profiling_128kb = make ~name:"128KB" ~associativity:4 ~sets:2048 ~line:16
let profiling_768kb = make ~name:"768KB" ~associativity:6 ~sets:4096 ~line:32
let profiling_4mb = make ~name:"4MB" ~associativity:8 ~sets:8192 ~line:64

let profiling_set =
  [ profiling_16kb; profiling_128kb; profiling_768kb; profiling_4mb ]

let verification_set = [ small_verification; large_verification ]

(* Derive a hierarchy from a base (L1) configuration: each deeper level
   keeps the associativity and line size and has 8x the sets of the one
   above — a conventional capacity ratio, and sharing one line size is
   what lets the funnel forward whole lines and the set-sharded walk
   partition every level consistently.  Level 1 is [t] itself,
   unchanged, so a 1-level hierarchy is indistinguishable from the
   single cache it wraps (names included). *)
let hierarchy_of ~levels t =
  if levels < 1 || levels > 3 then
    invalid_arg
      (Printf.sprintf "Config.hierarchy_of: levels must be 1..3 (got %d)"
         levels);
  List.init levels (fun i ->
      if i = 0 then t
      else
        make
          ~name:(Printf.sprintf "%s/L%d" t.name (i + 1))
          ~associativity:t.associativity
          ~sets:(t.sets * (1 lsl (3 * i)))
          ~line:t.line)

let pp fmt t =
  Format.fprintf fmt "%s: %d-way, %d sets, %dB lines, %a" t.name
    t.associativity t.sets t.line Dvf_util.Units.pp_bytes (capacity t)
