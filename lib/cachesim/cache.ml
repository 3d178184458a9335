(* Slot state is stored structure-of-arrays per cache: for slot [s*CA+w]:
   tag (line number, -1 when invalid), owner, dirty flag and last-use stamp.
   LRU uses a monotonically increasing clock; 63-bit ints cannot wrap in
   any realistic simulation.

   Alongside the LRU clock the cache keeps a *logical event clock*
   [now]: the ordinal of the reference event being processed, set per
   event by the batch kernel.  With a [Residency.t] attached, every
   line additionally carries the start time of its current clean or
   dirty phase in [res_start], and phase transitions — fill, first
   dirtying write, eviction, flush — close the open phase into the
   accumulator. *)

type t = {
  config : Config.t;
  stats : Stats.t;
  tags : int array;
  owners : int array;
  dirty : bool array;
  stamps : int array;
  mutable clock : int;
  line_shift : int;
  set_mask : int;
  mutable now : int;
  mutable res : Residency.t option;
  mutable res_start : int array;
  (* One-event batch behind the single-reference entry points. *)
  one_addr : int array;
  one_meta : int array;
}

let log2 n =
  let rec loop acc n = if n <= 1 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let create config =
  let open Config in
  (* [Config.make] already enforces power-of-two geometry; re-check here
     because [line_shift]/[set_mask] silently mis-index otherwise, and a
     loud failure beats a subtly wrong simulation if the smart constructor
     is ever bypassed. *)
  if not (Config.is_power_of_two config.sets) then
    invalid_arg
      (Printf.sprintf "Cache.create: sets must be a power of two (got %d)"
         config.sets);
  if not (Config.is_power_of_two config.line) then
    invalid_arg
      (Printf.sprintf "Cache.create: line must be a power of two (got %d)"
         config.line);
  let slots = config.associativity * config.sets in
  {
    config;
    stats = Stats.create ();
    tags = Array.make slots (-1);
    owners = Array.make slots 0;
    dirty = Array.make slots false;
    stamps = Array.make slots 0;
    clock = 0;
    line_shift = log2 config.line;
    set_mask = config.sets - 1;
    now = 0;
    res = None;
    res_start = [||];
    one_addr = [| 0 |];
    one_meta = [| 0 |];
  }

let config t = t.config
let stats t = t.stats
let now t = t.now
let set_now t time =
  if time < 0 then invalid_arg "Cache.set_now: negative time";
  t.now <- time

let residency t = t.res

let attach_residency t res =
  if Array.length t.res_start = 0 then
    t.res_start <- Array.make (Array.length t.tags) 0
  else Array.fill t.res_start 0 (Array.length t.res_start) 0;
  t.res <- Some res

(* --- packed bulk interface ---

   One event is two ints: the byte address, and a metadata word packing
   write (bit 0), size (bits 1..30) and owner (bits 31+).  The layout is
   shared with [Memtrace.Tape], which stores captured traces in columnar
   [addrs]/[metas] arrays and streams whole chunks back through
   [access_batch] — one closure dispatch and one bounds check per chunk
   instead of per event. *)

let meta_size_bits = 30
let max_size = (1 lsl meta_size_bits) - 1
let meta_owner_shift = meta_size_bits + 1
let max_owner = max_int lsr meta_owner_shift

let pack_access ~owner ~write ~size =
  if size <= 0 || size > max_size then
    invalid_arg
      (Printf.sprintf "Cache.pack_access: size %d out of range (1..%d)" size
         max_size);
  if owner < 0 || owner > max_owner then
    invalid_arg
      (Printf.sprintf "Cache.pack_access: owner %d out of range (0..%d)" owner
         max_owner);
  (owner lsl meta_owner_shift)
  lor (size lsl 1)
  lor (if write then 1 else 0)

let unpack_access meta =
  ( meta lsr meta_owner_shift,
    meta land 1 = 1,
    (meta lsr 1) land max_size )

(* Whole-range validation before any state change: a bad event mid-batch
   used to abort the walk half-applied, leaving tags and statistics torn.
   Validating up front means a failed batch leaves the cache untouched —
   and lets the kernel below index with [Array.unsafe_get]. *)
let validate_batch ~addrs ~metas ~pos ~len =
  if
    pos < 0 || len < 0
    || pos + len > Array.length addrs
    || pos + len > Array.length metas
  then
    invalid_arg
      (Printf.sprintf
         "Cache.access_batch: bad range pos=%d len=%d (addrs %d, metas %d)"
         pos len (Array.length addrs) (Array.length metas));
  for i = pos to pos + len - 1 do
    if addrs.(i) < 0 then
      invalid_arg
        (Printf.sprintf "Cache.access_batch: negative address at index %d" i)
  done

let nofeed ~owner:_ ~line:_ = ()

(* The one simulation kernel.  Every reference stream — tape replay,
   hierarchy levels, the single-reference entry points — funnels here.

   Per event the logical clock is set ([times.(i)] when given, else the
   implicit [now0 + i]); per touched line the way scan exits on the
   first tag match, and the LRU victim scan runs only on a miss.  A
   dirty victim's write-back is reported to [spill] before the missing
   line's demand fetch is reported to [fill] (line numbers, not byte
   addresses).  With a residency accumulator attached, the fill, the
   first dirtying write and the eviction each close the line's open
   clean/dirty phase at the current clock. *)
let access_batch ?times ?(fill = nofeed) ?(spill = nofeed) t ~addrs ~metas
    ~pos ~len =
  validate_batch ~addrs ~metas ~pos ~len;
  (match times with
  | Some times when pos + len > Array.length times ->
      invalid_arg
        (Printf.sprintf "Cache: bad times range pos=%d len=%d (times %d)" pos
           len (Array.length times))
  | _ -> ());
  let shift = t.line_shift in
  let set_mask = t.set_mask in
  let ca = t.config.Config.associativity in
  let tags = t.tags
  and owners = t.owners
  and dirty = t.dirty
  and stamps = t.stamps
  and stats = t.stats in
  let now0 = t.now in
  for i = pos to pos + len - 1 do
    (t.now <-
       match times with
       | None -> now0 + (i - pos)
       | Some times -> Array.unsafe_get times i);
    let addr = Array.unsafe_get addrs i in
    let meta = Array.unsafe_get metas i in
    let owner = meta lsr meta_owner_shift in
    let write = meta land 1 = 1 in
    let first = addr lsr shift in
    let last = (addr + ((meta lsr 1) land max_size) - 1) lsr shift in
    for line = first to last do
      let base = (line land set_mask) * ca in
      let limit = base + ca in
      t.clock <- t.clock + 1;
      let w = ref base in
      while !w < limit && Array.unsafe_get tags !w <> line do
        incr w
      done;
      if !w < limit then begin
        let w = !w in
        Stats.record_access stats ~owner ~write ~hit:true;
        Array.unsafe_set stamps w t.clock;
        if write && not (Array.unsafe_get dirty w) then begin
          (match t.res with
          | Some res ->
              (* first dirtying write: the clean phase ends here *)
              Residency.record_interval res ~owner:(Array.unsafe_get owners w)
                ~dirty:false ~t0:t.res_start.(w) ~t1:t.now;
              t.res_start.(w) <- t.now
          | None -> ());
          Array.unsafe_set dirty w true
        end
      end
      else begin
        Stats.record_access stats ~owner ~write ~hit:false;
        let victim = ref base and victim_stamp = ref max_int in
        for w = base to limit - 1 do
          if Array.unsafe_get stamps w < !victim_stamp then begin
            victim_stamp := Array.unsafe_get stamps w;
            victim := w
          end
        done;
        let w = !victim in
        let old_owner = Array.unsafe_get owners w in
        if Array.unsafe_get tags w >= 0 then begin
          if Array.unsafe_get dirty w then begin
            Stats.record_writeback stats ~owner:old_owner;
            spill ~owner:old_owner ~line:(Array.unsafe_get tags w)
          end;
          match t.res with
          | Some res ->
              Residency.record_interval res ~owner:old_owner
                ~dirty:(Array.unsafe_get dirty w) ~t0:t.res_start.(w) ~t1:t.now;
              Residency.record_eviction res ~owner:old_owner
          | None -> ()
        end;
        Array.unsafe_set tags w line;
        Array.unsafe_set owners w owner;
        Array.unsafe_set dirty w write;
        Array.unsafe_set stamps w t.clock;
        (match t.res with
        | Some res ->
            t.res_start.(w) <- t.now;
            Residency.record_fill res ~owner
        | None -> ());
        fill ~owner ~line
      end
    done
  done;
  match times with
  | None -> t.now <- now0 + len
  | Some _ -> ()

(* Single references ride the kernel as one-event batches. *)
let access_one t ~owner ~write ~addr ~size =
  t.one_addr.(0) <- addr;
  t.one_meta.(0) <- pack_access ~owner ~write ~size;
  access_batch t ~addrs:t.one_addr ~metas:t.one_meta ~pos:0 ~len:1

let touch_line t ~owner ~write ~line_addr =
  if line_addr < 0 then invalid_arg "Cache.touch_line: negative address";
  let hits () = (Stats.owner_counters t.stats owner).Stats.hits in
  let before = hits () in
  access_one t ~owner ~write ~addr:line_addr ~size:1;
  hits () > before

let access t ~owner ~write ~addr ~size =
  if size <= 0 then invalid_arg "Cache.access: non-positive size";
  if addr < 0 then invalid_arg "Cache.access: negative address";
  access_one t ~owner ~write ~addr ~size

(* End-of-run eviction of everything resident; every dirty line's
   write-back is also handed to [spill] (slot order, i.e. set-major) so
   a next cache level can absorb it.  With residency attached, every
   surviving line's open phase is closed at the current event clock —
   the driver sets [now] to the run horizon first ([set_now]) so
   end-of-run exposure is counted up to the horizon and no further. *)
let flush ?(spill = nofeed) t =
  Array.iteri
    (fun w tag ->
      if tag >= 0 then begin
        if t.dirty.(w) then begin
          Stats.record_writeback t.stats ~owner:t.owners.(w);
          spill ~owner:t.owners.(w) ~line:tag
        end;
        (match t.res with
        | Some res ->
            Residency.record_interval res ~owner:t.owners.(w)
              ~dirty:t.dirty.(w) ~t0:t.res_start.(w) ~t1:t.now;
            Residency.record_flush res ~owner:t.owners.(w)
        | None -> ());
        t.tags.(w) <- -1;
        t.dirty.(w) <- false;
        t.stamps.(w) <- 0
      end)
    t.tags

let invalidate t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let resident_lines t ~owner =
  let count = ref 0 in
  Array.iteri
    (fun w tag -> if tag >= 0 && t.owners.(w) = owner then incr count)
    t.tags;
  !count
