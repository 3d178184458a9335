module Maths = Dvf_util.Maths

type occurrence_pattern =
  | Stream of Streaming.t
  | Tmpl of Template.t
  | Reuse_only

type occurrence = {
  structure : string;
  pattern : occurrence_pattern;
  times : int;
}

let occ ?(times = 1) structure pattern =
  if times < 1 then invalid_arg "Compose.occ: times < 1";
  { structure; pattern; times }

type phase = occurrence list

type structure = {
  name : string;
  bytes : int;
}

type t = {
  structures : structure list;
  order : phase list;
  iterations : int;
}

let make ~structures ~order ~iterations =
  if iterations < 1 then invalid_arg "Compose.make: iterations < 1";
  if structures = [] then invalid_arg "Compose.make: no structures";
  let declared = List.map (fun s -> s.name) structures in
  List.iter
    (fun phase ->
      List.iter
        (fun occ ->
          if not (List.mem occ.structure declared) then
            invalid_arg
              ("Compose.make: occurrence of undeclared structure "
              ^ occ.structure))
        phase)
    order;
  { structures; order; iterations }

let find_structure t name = List.find (fun s -> s.name = name) t.structures

let structure_blocks ~cache s =
  Reuse.blocks_of_bytes ~cache s.bytes

(* Blocks one occurrence touches. *)
let occurrence_blocks ~cache s occ =
  let line = cache.Cachesim.Config.line in
  let cap = structure_blocks ~cache s in
  match occ.pattern with
  | Stream st ->
      min cap (int_of_float (ceil (Streaming.main_memory_accesses ~line st)))
  | Tmpl tp -> min cap (Template.distinct_blocks ~cache tp)
  | Reuse_only -> cap

let footprint_blocks ~cache t name =
  let s = find_structure t name in
  let best = ref 0 in
  List.iter
    (fun phase ->
      List.iter
        (fun occ ->
          if occ.structure = name then
            best := max !best (occurrence_blocks ~cache s occ))
        phase)
    t.order;
  if !best = 0 then structure_blocks ~cache s else !best

(* Cold (first-touch) cost of an occurrence. *)
let first_touch_cost ~cache s occ =
  let line = cache.Cachesim.Config.line in
  match occ.pattern with
  | Stream st -> Streaming.main_memory_accesses ~line st
  | Tmpl tp -> Template.main_memory_accesses ~cache tp
  | Reuse_only -> float_of_int (structure_blocks ~cache s)

let main_memory_accesses ~cache t =
  let totals = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace totals s.name 0.0) t.structures;
  let add name v =
    Hashtbl.replace totals name (Hashtbl.find totals name +. v)
  in
  (* Global stream of phases over two simulated iterations: iteration 1 is
     the cold pass, iteration 2 reaches the steady state (every reuse then
     sees the wrap-around history).  last_seen maps structure -> global
     phase index of its previous occurrence. *)
  let footprint = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace footprint s.name (footprint_blocks ~cache t s.name))
    t.structures;
  let phases = Array.of_list t.order in
  let nphases = Array.length phases in
  let last_seen : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let iteration_cost = Array.make 2 0.0 in
  for sim_iter = 0 to 1 do
    for p = 0 to nphases - 1 do
      let gidx = (sim_iter * nphases) + p in
      let phase = phases.(p) in
      List.iter
        (fun occ ->
          let s = find_structure t occ.structure in
          let base_cost =
            match Hashtbl.find_opt last_seen occ.structure with
            | None -> first_touch_cost ~cache s occ
            | Some prev ->
                (* Interference set: structures touched in the open
                   interval (prev, gidx) plus the co-occupants of this
                   phase. *)
                let interferers = Hashtbl.create 8 in
                for g = prev + 1 to gidx - 1 do
                  List.iter
                    (fun o ->
                      if o.structure <> occ.structure then
                        Hashtbl.replace interferers o.structure ())
                    phases.(g mod nphases)
                done;
                List.iter
                  (fun o ->
                    if o.structure <> occ.structure then
                      Hashtbl.replace interferers o.structure ())
                  phase;
                let fb =
                  Hashtbl.fold
                    (fun name () acc -> acc + Hashtbl.find footprint name)
                    interferers 0
                in
                let fa = Hashtbl.find footprint occ.structure in
                let scenario =
                  if List.length phase > 1 then `Concurrent else `Lru_protected
                in
                Reuse.misses_per_reuse ~cache ~fa ~fb ~scenario ()
          in
          let repeat_cost =
            (* Within-phase repeats: each re-traverse contends with the
               slice of the co-occupants' footprint interleaved with it
               (e.g. one matrix row per vector re-read in a matvec). *)
            if occ.times <= 1 then 0.0
            else begin
              let co_fb =
                List.fold_left
                  (fun acc o ->
                    if o.structure = occ.structure then acc
                    else acc + Hashtbl.find footprint o.structure)
                  0 phase
              in
              let fa = Hashtbl.find footprint occ.structure in
              let per_repeat_fb = co_fb / occ.times in
              float_of_int (occ.times - 1)
              *. Reuse.misses_per_reuse ~cache ~fa ~fb:per_repeat_fb
                   ~scenario:`Concurrent ()
            end
          in
          let cost = base_cost +. repeat_cost in
          iteration_cost.(sim_iter) <- iteration_cost.(sim_iter) +. cost;
          add occ.structure
            (if sim_iter = 0 then cost
             else cost *. float_of_int (t.iterations - 1));
          Hashtbl.replace last_seen occ.structure gidx)
        phase
    done
  done;
  List.map (fun s -> (s.name, Hashtbl.find totals s.name)) t.structures

let total ~cache t =
  Maths.sum (Array.of_list (List.map snd (main_memory_accesses ~cache t)))

let references ~cache t =
  let per_occurrence s occ =
    let base =
      match occ.pattern with
      | Stream st ->
          let per = float_of_int (Streaming.touched_elements st) in
          if st.Streaming.writeback then 2.0 *. per else per
      | Tmpl tp -> float_of_int (Array.length tp.Template.refs)
      | Reuse_only -> float_of_int (structure_blocks ~cache s)
    in
    base *. float_of_int occ.times
  in
  List.map
    (fun s ->
      let per_iteration =
        List.fold_left
          (fun acc phase ->
            List.fold_left
              (fun acc occ ->
                if occ.structure = s.name then acc +. per_occurrence s occ
                else acc)
              acc phase)
          0.0 t.order
      in
      (s.name, per_iteration *. float_of_int t.iterations))
    t.structures
