type distance_kind = [ `Stack | `Raw ]

(* One pass's answer at one (line size, capacity). *)
type counts = { distinct : int; misses : int; writebacks : int }

type memo = ((int * int) * counts) list Atomic.t

type t = {
  elem_size : int;
  refs : int array;
  writes : Bytes.t option;
  cache_ratio : float;
  distance : distance_kind;
  memo : memo;
}

let make ?(cache_ratio = 1.0) ?(distance = `Stack) ?writes ~elem_size refs =
  if elem_size <= 0 then invalid_arg "Template.make: elem_size <= 0";
  if not (cache_ratio > 0.0 && cache_ratio <= 1.0) then
    invalid_arg "Template.make: cache_ratio outside (0,1]";
  Array.iter
    (fun i -> if i < 0 then invalid_arg "Template.make: negative element index")
    refs;
  (match writes with
  | Some w when Bytes.length w <> Array.length refs ->
      invalid_arg "Template.make: writes length mismatch"
  | _ -> ());
  { elem_size; refs; writes; cache_ratio; distance; memo = Atomic.make [] }

let available_blocks ~cache t =
  let cc = float_of_int (Cachesim.Config.capacity cache) in
  let line = float_of_int cache.Cachesim.Config.line in
  max 1 (int_of_float (cc *. t.cache_ratio /. line))

(* Calls [f block store] for every block of every reference, in order:
   an element covers the blocks from its first byte's to its last's. *)
let iter_blocks ~line t f =
  let e = t.elem_size in
  let store pos =
    match t.writes with
    | Some w -> Bytes.unsafe_get w pos <> '\000'
    | None -> false
  in
  Array.iteri
    (fun pos elem ->
      let w = store pos in
      for b = elem * e / line to ((elem * e) + e - 1) / line do
        f b w
      done)
    t.refs

(* The block ids as array indices below a bound: kept when they are not
   far above the trace length, otherwise renumbered in first-touch order,
   so memory follows the trace and never the largest id.  Returns the
   bound and the iteration over [(index, store)] pairs. *)
let dense_blocks ~line t =
  let e = t.elem_size in
  let per_ref = ((e + line - 1) / line) + 1 in
  let hi = ((Array.fold_left max 0 t.refs * e) + e - 1) / line in
  if hi < (2 * per_ref * Array.length t.refs) + 1024 then
    (hi + 1, iter_blocks ~line t)
  else begin
    let ids = Hashtbl.create 1024 in
    iter_blocks ~line t (fun b _ ->
        if not (Hashtbl.mem ids b) then Hashtbl.add ids b (Hashtbl.length ids));
    ( Hashtbl.length ids,
      fun f -> iter_blocks ~line t (fun b w -> f (Hashtbl.find ids b) w) )
  end

(* State bits of a block in the LRU pass. *)
let seen = 1
let resident = 2
let dirty = 4

(* A fully associative LRU cache of [capacity] blocks: a recency list
   threaded through [prev]/[next] (most recent at [head]) and a state byte
   per block.  Evicting a dirty block is a writeback, and so is every
   dirty block still resident at the end (a final flush). *)
let lru ~line ~capacity t =
  let nb, iter = dense_blocks ~line t in
  let prev = Array.make nb (-1) and next = Array.make nb (-1) in
  let state = Bytes.make nb '\000' in
  let head = ref (-1) and tail = ref (-1) and size = ref 0 in
  let distinct = ref 0 and misses = ref 0 and writebacks = ref 0 in
  let get b = Char.code (Bytes.unsafe_get state b) in
  let set b s = Bytes.unsafe_set state b (Char.unsafe_chr s) in
  let unlink b =
    let p = prev.(b) and n = next.(b) in
    if p >= 0 then next.(p) <- n else head := n;
    if n >= 0 then prev.(n) <- p else tail := p
  in
  let push b =
    prev.(b) <- -1;
    next.(b) <- !head;
    if !head >= 0 then prev.(!head) <- b else tail := b;
    head := b
  in
  iter (fun b w ->
      let s = get b in
      if s land resident <> 0 then begin
        if b <> !head then begin
          unlink b;
          push b
        end;
        if w then set b (s lor dirty)
      end
      else begin
        incr misses;
        if s = 0 then incr distinct;
        if !size = capacity then begin
          let v = !tail in
          if get v land dirty <> 0 then incr writebacks;
          set v seen;
          unlink v
        end
        else incr size;
        push b;
        set b (seen lor resident lor if w then dirty else 0)
      end);
  let b = ref !head in
  while !b >= 0 do
    if get !b land dirty <> 0 then incr writebacks;
    b := next.(!b)
  done;
  { distinct = !distinct; misses = !misses; writebacks = !writebacks }

(* The [`Raw] distance: a re-reference misses iff at least [capacity]
   block references lie between it and the block's previous one.  A
   dirty block is written back when it misses again, or at the end. *)
let raw ~line ~capacity t =
  let nb, iter = dense_blocks ~line t in
  let last = Array.make nb (-1) and dirt = Bytes.make nb '\000' in
  let clock = ref 0 in
  let distinct = ref 0 and misses = ref 0 and writebacks = ref 0 in
  iter (fun b w ->
      let p = last.(b) in
      if p < 0 || !clock - p - 1 >= capacity then begin
        incr misses;
        if p < 0 then incr distinct;
        if Bytes.get dirt b <> '\000' then incr writebacks;
        Bytes.set dirt b (if w then '\001' else '\000')
      end
      else if w then Bytes.set dirt b '\001';
      last.(b) <- !clock;
      incr clock);
  Bytes.iter (fun d -> if d <> '\000' then incr writebacks) dirt;
  { distinct = !distinct; misses = !misses; writebacks = !writebacks }

let counts ~cache t =
  let line = cache.Cachesim.Config.line in
  let capacity = available_blocks ~cache t in
  let key = (line, capacity) in
  match List.assoc_opt key (Atomic.get t.memo) with
  | Some c -> c
  | None ->
      let c =
        match t.distance with
        | `Stack -> lru ~line ~capacity t
        | `Raw -> raw ~line ~capacity t
      in
      (* A racing domain may have published the same counts first. *)
      let rec publish () =
        let known = Atomic.get t.memo in
        if List.mem_assoc key known
           || Atomic.compare_and_set t.memo known ((key, c) :: known)
        then c
        else publish ()
      in
      publish ()

let distinct_blocks ~cache t = (counts ~cache t).distinct

let main_memory_accesses ~cache t =
  let c = counts ~cache t in
  float_of_int (c.misses + c.writebacks)

let pp fmt t =
  Format.fprintf fmt "template(E=%d,|refs|=%d,r=%g%s)" t.elem_size
    (Array.length t.refs) t.cache_ratio
    (match t.writes with Some _ -> ",rw" | None -> "")
