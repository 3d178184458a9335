(* A captured trace lives in chunks of two parallel unboxed [int] arrays:
   byte address, and the packed metadata word defined by
   [Cachesim.Cache.pack_access].  Chunks are fixed-size (default 65536
   events = two 512 KiB arrays, far past the minor-heap threshold, so
   capture never churns the minor collector) and are only ever appended
   to, which keeps [append] at two stores and an increment.

   Chunks may also be deferred: a loaded tape ([Tape_io]) adopts chunks
   as (length, decode closure) pairs over an mmap'd payload and only
   materializes the [int] arrays when a walk actually needs them.
   Materialization is idempotent and lock-free ([Atomic]
   compare-and-set), so concurrent domains replaying one tape may race
   to decode the same chunk and simply agree on one winner. *)

type chunk = {
  addrs : int array;
  metas : int array;
  mutable len : int;
}

type deferred = {
  d_len : int;
  d_cell : chunk option Atomic.t;
  d_decode : unit -> int array * int array;
}

type entry = Ready of chunk | Deferred of deferred

type t = {
  chunk_capacity : int;
  mutable filled : entry list; (* full chunks, most recent first *)
  mutable filled_count : int; (* List.length filled, tracked incrementally *)
  mutable head : chunk; (* current partially filled chunk *)
  mutable total : int;
}

let default_chunk_events = 65536
let bytes_per_event = 2 * (Sys.word_size / 8)

let fresh_chunk capacity =
  { addrs = Array.make capacity 0; metas = Array.make capacity 0; len = 0 }

let create ?(chunk_events = default_chunk_events) () =
  if chunk_events <= 0 then
    invalid_arg
      (Printf.sprintf "Tape.create: chunk_events must be positive (got %d)"
         chunk_events);
  {
    chunk_capacity = chunk_events;
    filled = [];
    filled_count = 0;
    head = fresh_chunk chunk_events;
    total = 0;
  }

let length t = t.total
let chunk_events t = t.chunk_capacity

(* [filled_count] is maintained on every chunk retirement; telemetry
   gauges sample these per chunk, so recomputing [List.length t.filled]
   here used to make capture quadratic in tape length. *)
let chunk_count t = t.filled_count + if t.head.len > 0 then 1 else 0
let allocated_bytes t = (t.filled_count + 1) * t.chunk_capacity * bytes_per_event

let retire_head t =
  t.filled <- Ready t.head :: t.filled;
  t.filled_count <- t.filled_count + 1;
  t.head <- fresh_chunk t.chunk_capacity

let append t (e : Event.t) =
  if e.addr < 0 then invalid_arg "Tape.append: negative address";
  if t.head.len = t.chunk_capacity then retire_head t;
  let c = t.head in
  c.addrs.(c.len) <- e.addr;
  c.metas.(c.len) <-
    Cachesim.Cache.pack_access ~owner:e.owner ~write:e.write ~size:e.size;
  c.len <- c.len + 1;
  t.total <- t.total + 1

(* Packed layout mirrored from [Cachesim.Cache.pack_access]; the shift is
   derived from [Cache.max_size] so the two cannot drift, and the
   equivalence is asserted once at module initialization. *)
let meta_owner_shift =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  bits Cachesim.Cache.max_size + 1

let () =
  assert (
    Cachesim.Cache.pack_access ~owner:3 ~write:true ~size:5
    = (3 lsl meta_owner_shift) lor (5 lsl 1) lor 1)

(* Bulk capture: validate the whole batch up front (a failed batch
   leaves the tape untouched), then store runs directly into the chunk
   arrays, splitting only at chunk boundaries — no per-event boundary
   re-check and no per-event validation inside [pack_access].  Capture
   is the pipeline bottleneck, so this path is what [batch_sink] rides. *)
let append_batch t events n =
  if n < 0 || n > Array.length events then
    invalid_arg
      (Printf.sprintf "Tape.append_batch: bad count %d (have %d events)" n
         (Array.length events));
  for i = 0 to n - 1 do
    let e : Event.t = events.(i) in
    if e.addr < 0 then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: negative address at index %d" i);
    if e.size <= 0 || e.size > Cachesim.Cache.max_size then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: size %d out of range at index %d"
           e.size i);
    if e.owner < 0 || e.owner > Cachesim.Cache.max_owner then
      invalid_arg
        (Printf.sprintf "Tape.append_batch: owner %d out of range at index %d"
           e.owner i)
  done;
  let i = ref 0 in
  while !i < n do
    if t.head.len = t.chunk_capacity then retire_head t;
    let c = t.head in
    let run = min (n - !i) (t.chunk_capacity - c.len) in
    for k = 0 to run - 1 do
      let e : Event.t = Array.unsafe_get events (!i + k) in
      Array.unsafe_set c.addrs (c.len + k) e.addr;
      Array.unsafe_set c.metas (c.len + k)
        ((e.owner lsl meta_owner_shift)
        lor (e.size lsl 1)
        lor (if e.write then 1 else 0))
    done;
    c.len <- c.len + run;
    i := !i + run
  done;
  t.total <- t.total + n

let sink t : Recorder.sink = fun e -> append t e
let batch_sink t : Recorder.batch_sink = fun events n -> append_batch t events n

(* {2 Entries: materialization} *)

let check_decoded t ~addrs ~metas =
  if
    Array.length addrs <> t.chunk_capacity
    || Array.length metas <> t.chunk_capacity
  then
    invalid_arg
      (Printf.sprintf
         "Tape: deferred chunk decoder returned %d/%d-word arrays (chunk \
          capacity %d)"
         (Array.length addrs) (Array.length metas) t.chunk_capacity)

(* Decode a deferred chunk; on a CAS race the loser adopts the winner's
   arrays (both decoded the same mapped words, so either result is
   correct, and dropping one keeps every domain reading one copy). *)
let force t = function
  | Ready c -> c
  | Deferred d -> (
      match Atomic.get d.d_cell with
      | Some c -> c
      | None -> (
          let addrs, metas = d.d_decode () in
          check_decoded t ~addrs ~metas;
          let c = { addrs; metas; len = d.d_len } in
          if Atomic.compare_and_set d.d_cell None (Some c) then c
          else
            match Atomic.get d.d_cell with Some c -> c | None -> assert false))

let materialize t = List.iter (fun e -> ignore (force t e)) t.filled

(* Chunks in capture order: [filled] is most-recent-first, then the
   partial head (skipped when empty, so replay never dispatches an empty
   batch).  Every walk over the tape — replay, raw iteration, decoding,
   and [Tape_io.save] — goes through this one fold, handing out the
   chunk arrays themselves (no copying, no decoding a chunk more than
   once). *)
let fold_chunks t ~init ~f =
  let acc =
    List.fold_left
      (fun acc e ->
        let c = force t e in
        f acc ~addrs:c.addrs ~metas:c.metas ~len:c.len)
      init (List.rev t.filled)
  in
  if t.head.len > 0 then
    f acc ~addrs:t.head.addrs ~metas:t.head.metas ~len:t.head.len
  else acc

let iter_raw t f =
  fold_chunks t ~init:() ~f:(fun () ~addrs ~metas ~len -> f ~addrs ~metas ~len)

(* {2 Chunk adoption (the [Tape_io] load path)} *)

let append_deferred_chunk t ~len ~decode =
  if len < 0 || len > t.chunk_capacity then
    invalid_arg
      (Printf.sprintf "Tape: bad adopted chunk length %d (capacity %d)" len
         t.chunk_capacity);
  if t.head.len > 0 then
    invalid_arg
      "Tape: tape ends in a partial chunk; adopted chunks can only follow \
       full ones";
  if len > 0 then begin
    if len = t.chunk_capacity then begin
      t.filled <-
        Deferred { d_len = len; d_cell = Atomic.make None; d_decode = decode }
        :: t.filled;
      t.filled_count <- t.filled_count + 1
    end
    else begin
      (* A partial chunk becomes the (mutable, appendable) head, so it is
         decoded eagerly; at most one per tape. *)
      let addrs, metas = decode () in
      check_decoded t ~addrs ~metas;
      t.head <- { addrs; metas; len }
    end;
    t.total <- t.total + len
  end

(* {2 Replay}

   One walk over the chunks, each chunk fed to every consumer before
   moving on, so a multi-geometry run reads each chunk while it is
   hot. *)

let replay_fused t caches =
  iter_raw t (fun ~addrs ~metas ~len ->
      Array.iter
        (fun cache ->
          Cachesim.Cache.access_batch cache ~addrs ~metas ~pos:0 ~len)
        caches)

let replay t cache = replay_fused t [| cache |]

let replay_hierarchies t hierarchies =
  iter_raw t (fun ~addrs ~metas ~len ->
      Array.iter
        (fun h -> Cachesim.Hierarchy.access_batch h ~addrs ~metas ~pos:0 ~len)
        hierarchies)

let iter t f =
  iter_raw t (fun ~addrs ~metas ~len ->
      for i = 0 to len - 1 do
        let owner, write, size = Cachesim.Cache.unpack_access metas.(i) in
        f { Event.owner; write; addr = addrs.(i); size }
      done)

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc
