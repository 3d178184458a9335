module Fenwick = Dvf_util.Fenwick

type distance_kind = [ `Stack | `Raw ]

(* [ge.(c)] counts the re-references at distance >= c and [wb.(c)] the
   writebacks of a [c]-block cache; past the end, [ge] is 0 and [wb]
   keeps its last value. *)
type profile = { cold : int; ge : int array; wb : int array }

type memo = (int * profile) list Atomic.t

type t = {
  elem_size : int;
  refs : int array;
  writes : bool array option;
  cache_ratio : float;
  distance : distance_kind;
  profiles : memo;
}

let make ?(cache_ratio = 1.0) ?(distance = `Stack) ?writes ~elem_size refs =
  if elem_size <= 0 then invalid_arg "Template.make: elem_size <= 0";
  if not (cache_ratio > 0.0 && cache_ratio <= 1.0) then
    invalid_arg "Template.make: cache_ratio outside (0,1]";
  Array.iter
    (fun i -> if i < 0 then invalid_arg "Template.make: negative element index")
    refs;
  (match writes with
  | Some w when Array.length w <> Array.length refs ->
      invalid_arg "Template.make: writes length mismatch"
  | _ -> ());
  { elem_size; refs; writes; cache_ratio; distance; profiles = Atomic.make [] }

(* Element references lowered to block ids, with a store column ('\001'
   marks a store; empty when the template has no store flags). *)
let lower ~line t =
  if line <= 0 then invalid_arg "Template.profile: line <= 0";
  let e = t.elem_size in
  let block byte = byte / line in
  (* Elements straddle lines only when [e] does not divide the line. *)
  let n =
    if line mod e = 0 then Array.length t.refs
    else
      Array.fold_left
        (fun acc elem -> acc + block ((elem * e) + e - 1) - block (elem * e) + 1)
        0 t.refs
  in
  let blocks = Array.make n 0 in
  let stores = Bytes.make (if Option.is_some t.writes then n else 0) '\000' in
  let k = ref 0 in
  Array.iteri
    (fun pos elem ->
      let w = match t.writes with Some ws -> ws.(pos) | None -> false in
      for b = block (elem * e) to block ((elem * e) + e - 1) do
        blocks.(!k) <- b;
        if w then Bytes.set stores !k '\001';
        incr k
      done)
    t.refs;
  (blocks, stores)

let available_blocks ~cache t =
  let cc = float_of_int (Cachesim.Config.capacity cache) in
  let line = float_of_int cache.Cachesim.Config.line in
  max 1 (int_of_float (cc *. t.cache_ratio /. line))

(* Block ids as dense array indices: kept when they already are (non-
   negative and not far above the trace length), otherwise renumbered
   once in first-touch order, so memory never scales with the largest
   id.  Returns the ids and their bound. *)
let dense_ids blocks =
  let n = Array.length blocks in
  let lo = Array.fold_left min 0 blocks and hi = Array.fold_left max (-1) blocks in
  if lo >= 0 && hi < (2 * n) + 1024 then (blocks, hi + 1)
  else begin
    let ids = Hashtbl.create 1024 in
    let dense =
      Array.map
        (fun b ->
          match Hashtbl.find_opt ids b with
          | Some i -> i
          | None ->
              let i = Hashtbl.length ids in
              Hashtbl.add ids b i;
              i)
        blocks
    in
    (dense, Hashtbl.length ids)
  end

(* Reference [t] to block [b] at distance [d] ([-1] on a first touch):
   Mattson's histogram, plus Thompson & Smith's write-back extension.
   [pend.(b)] is -1 while [b] holds no unwritten store, else the largest
   distance of its references since its last store.  A cache of [c]
   blocks writes the dirty generation back at this reference iff that
   store survived to here (every later reference hit, [pend.(b) < c]) and
   this one misses ([d >= c]): one writeback on every capacity in
   [(pend.(b), d]].  [stores] is empty for a read-only trace. *)
let record hist diff pend stores b t d =
  let w = Bytes.length stores > 0 && Bytes.unsafe_get stores t <> '\000' in
  let p = pend.(b) in
  if d >= 0 then begin
    hist.(d) <- hist.(d) + 1;
    if p >= 0 && d > p then begin
      diff.(p + 1) <- diff.(p + 1) + 1;
      diff.(d + 1) <- diff.(d + 1) - 1;
      if not w then pend.(b) <- d
    end
  end;
  if w then pend.(b) <- 0

(* LRU stack distances over a Fenwick tree of live last-use stamps in
   compacted time: a re-reference's distance is the number of live
   stamps after its block's previous one.  When the clock reaches the
   tree size the live stamps are renumbered 0..live-1 (and the tree
   doubled once they fill half of it), so the tree stays about twice the
   distinct-block count rather than the trace length. *)
let stack_distances hist diff pend stores blocks nb =
  let last = Array.make nb (-1) in
  let owner = ref (Array.make 64 0) in
  let tree = ref (Fenwick.create 64) in
  let clock = ref 0 and live = ref 0 in
  let compact () =
    let own = !owner in
    let k = ref 0 in
    for s = 0 to !clock - 1 do
      let b = own.(s) in
      if last.(b) = s then begin
        own.(!k) <- b;
        last.(b) <- !k;
        incr k
      end
    done;
    if 2 * !k > Array.length own then begin
      owner := Array.append own own;
      tree := Fenwick.create (Array.length !owner)
    end;
    Fenwick.reset_ones !tree !k;
    clock := !k
  in
  for t = 0 to Array.length blocks - 1 do
    if !clock = Array.length !owner then compact ();
    let b = blocks.(t) in
    let prev = last.(b) in
    (* Live stamps after [prev]: a scan of [owner] when [prev] is
       recent, else one prefix walk.  About two thirds of the MG
       templates' re-references are within 16 stamps. *)
    let d =
      if prev < 0 then -1
      else if !clock - prev <= 16 then begin
        let own = !owner and c = ref 0 in
        for s = prev + 1 to !clock - 1 do
          if last.(own.(s)) = s then incr c
        done;
        !c
      end
      else !live - Fenwick.prefix_sum !tree prev
    in
    record hist diff pend stores b t d;
    (* At distance 0 the block is already the most recent one. *)
    if d <> 0 then begin
      if prev < 0 then incr live else Fenwick.add !tree prev (-1);
      Fenwick.add !tree !clock 1;
      !owner.(!clock) <- b;
      last.(b) <- !clock;
      incr clock
    end
  done

(* Raw distances: the plain count of intervening references. *)
let raw_distances hist diff pend stores blocks nb =
  let last = Array.make nb (-1) in
  Array.iteri
    (fun t b ->
      let prev = last.(b) in
      record hist diff pend stores b t (if prev < 0 then -1 else t - prev - 1);
      last.(b) <- t)
    blocks

(* The whole trace's profile in one pass: the cold-miss count, the
   distance histogram, and a difference array over capacities for the
   writebacks, closed by the final flush (a block still holding a store
   is written back by every cache its later references all hit). *)
let build ~distance blocks stores =
  let n = Array.length blocks in
  let blocks, nb = dense_ids blocks in
  let bound = (match distance with `Stack -> nb | `Raw -> n) + 2 in
  let hist = Array.make bound 0 and diff = Array.make bound 0 in
  let pend = Array.make nb (-1) in
  (match distance with
  | `Stack -> stack_distances hist diff pend stores blocks nb
  | `Raw -> raw_distances hist diff pend stores blocks nb);
  Array.iter (fun p -> if p >= 0 then diff.(p + 1) <- diff.(p + 1) + 1) pend;
  (* Past the largest distance [ge] is 0 and [wb] constant. *)
  let top = ref (bound - 1) in
  while !top > 0 && hist.(!top) = 0 do decr top done;
  let len = !top + 2 in
  let reused = ref 0 in
  for c = len - 1 downto 0 do
    reused := !reused + hist.(c);
    hist.(c) <- !reused
  done;
  for c = 1 to len - 1 do
    diff.(c) <- diff.(c) + diff.(c - 1)
  done;
  { cold = n - !reused; ge = Array.sub hist 0 len; wb = Array.sub diff 0 len }

let cold_misses p = p.cold

let misses p ~capacity =
  p.cold + if capacity < Array.length p.ge then p.ge.(capacity) else 0

let writebacks p ~capacity = p.wb.(min capacity (Array.length p.wb - 1))

let profile ~line t =
  match List.assoc_opt line (Atomic.get t.profiles) with
  | Some p -> p
  | None ->
      let blocks, stores = lower ~line t in
      let p = build ~distance:t.distance blocks stores in
      (* A racing domain may have published its (identical) profile
         first; adopt it so every caller shares one. *)
      let rec publish () =
        let seen = Atomic.get t.profiles in
        match List.assoc_opt line seen with
        | Some q -> q
        | None ->
            if Atomic.compare_and_set t.profiles seen ((line, p) :: seen) then p
            else publish ()
      in
      publish ()

let profile_of_blocks ~distance ~writes trace =
  let stores =
    match writes with
    | Some w when Array.length w <> Array.length trace ->
        invalid_arg "Template.profile_of_blocks: writes length mismatch"
    | Some w -> Bytes.init (Array.length w) (fun i -> if w.(i) then '\001' else '\000')
    | None -> Bytes.empty
  in
  build ~distance trace stores

let main_memory_accesses ~cache t =
  let p = profile ~line:cache.Cachesim.Config.line t in
  let capacity = available_blocks ~cache t in
  float_of_int (misses p ~capacity + writebacks p ~capacity)

let pp fmt t =
  Format.fprintf fmt "template(E=%d,|refs|=%d,r=%g%s)" t.elem_size
    (Array.length t.refs) t.cache_ratio
    (match t.writes with Some _ -> ",rw" | None -> "")
