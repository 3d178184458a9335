(* Per-owner residency-time accounting, the time axis the access-count
   [Stats] lack.  The clock is the *event ordinal* of the reference
   stream driving the cache (tapes give a total order), so every
   quantity here is an exact integer: a closed interval [t0, t1)
   contributes [t1 - t0] line-events to its owner's clean or dirty
   integral, and its overlap with each fixed-width window of the run to
   that window's histogram bin.  Integer addition commutes, so [merge]
   is independent of merge order. *)

type cell = {
  mutable clean_time : int;
  mutable dirty_time : int;
  mutable fills : int;
  mutable evictions : int;
  mutable flushes : int;
  clean_bins : int array;
  dirty_bins : int array;
}

type t = {
  bins : int;
  horizon : int;
  bin_width : int;
  mutable cells : cell array;
}

let default_bins = 20
let max_bins = 1 lsl 16

let create ?(bins = default_bins) ~horizon () =
  if bins <= 0 || bins > max_bins then
    invalid_arg
      (Printf.sprintf "Residency.create: bins must be in 1..%d (got %d)"
         max_bins bins);
  if horizon < 0 then
    invalid_arg
      (Printf.sprintf "Residency.create: negative horizon %d" horizon);
  {
    bins;
    horizon;
    (* Every event ordinal in [0, horizon) must land in a bin, so the
       width rounds up; the last bin may be partial. *)
    bin_width = max 1 ((horizon + bins - 1) / bins);
    cells = [||];
  }

let bins t = t.bins
let horizon t = t.horizon
let bin_width t = t.bin_width

let fresh_cell bins =
  {
    clean_time = 0;
    dirty_time = 0;
    fills = 0;
    evictions = 0;
    flushes = 0;
    clean_bins = Array.make bins 0;
    dirty_bins = Array.make bins 0;
  }

let ensure t owner =
  if owner < 0 then invalid_arg "Residency: negative owner";
  let n = Array.length t.cells in
  if owner >= n then begin
    let n' = max (owner + 1) (max 8 (2 * n)) in
    t.cells <-
      Array.init n' (fun i -> if i < n then t.cells.(i) else fresh_cell t.bins)
  end;
  t.cells.(owner)

let record_fill t ~owner =
  let c = ensure t owner in
  c.fills <- c.fills + 1

let record_eviction t ~owner =
  let c = ensure t owner in
  c.evictions <- c.evictions + 1

let record_flush t ~owner =
  let c = ensure t owner in
  c.flushes <- c.flushes + 1

(* One closed residency phase of one line: [t0, t1) spent entirely clean
   or entirely dirty.  Clamped to [0, horizon] so end-of-run flush
   closures (and fills pushed at the horizon by a hierarchy flush
   cascade) contribute exactly the in-run exposure and nothing more. *)
let record_interval t ~owner ~dirty ~t0 ~t1 =
  if t1 < t0 then
    invalid_arg
      (Printf.sprintf "Residency.record_interval: t1 %d < t0 %d" t1 t0);
  let t0 = if t0 < 0 then 0 else t0 in
  let t1 = if t1 > t.horizon then t.horizon else t1 in
  if t1 > t0 then begin
    let c = ensure t owner in
    let span = t1 - t0 in
    let hist = if dirty then c.dirty_bins else c.clean_bins in
    if dirty then c.dirty_time <- c.dirty_time + span
    else c.clean_time <- c.clean_time + span;
    let w = t.bin_width in
    let b0 = t0 / w and b1 = (t1 - 1) / w in
    if b0 = b1 then hist.(b0) <- hist.(b0) + span
    else
      for b = b0 to b1 do
        let lo = max t0 (b * w) and hi = min t1 ((b + 1) * w) in
        hist.(b) <- hist.(b) + (hi - lo)
      done
  end

let is_empty c =
  c.clean_time = 0 && c.dirty_time = 0 && c.fills = 0 && c.evictions = 0
  && c.flushes = 0

let owners t =
  let acc = ref [] in
  Array.iteri (fun i c -> if not (is_empty c) then acc := i :: !acc) t.cells;
  List.rev !acc

(* --- immutable snapshots, mirroring [Stats.snapshot] --- *)

type counters = {
  clean_time : int;
  dirty_time : int;
  fills : int;
  evictions : int;
  flushes : int;
  clean_bins : int array;
  dirty_bins : int array;
}

let zero_counters bins =
  {
    clean_time = 0;
    dirty_time = 0;
    fills = 0;
    evictions = 0;
    flushes = 0;
    clean_bins = Array.make bins 0;
    dirty_bins = Array.make bins 0;
  }

let counters_of_cell (c : cell) =
  {
    clean_time = c.clean_time;
    dirty_time = c.dirty_time;
    fills = c.fills;
    evictions = c.evictions;
    flushes = c.flushes;
    clean_bins = Array.copy c.clean_bins;
    dirty_bins = Array.copy c.dirty_bins;
  }

type snapshot = {
  s_bins : int;
  s_horizon : int;
  s_bin_width : int;
  per_owner : (int * counters) array;
  totals : counters;
}

let snapshot t =
  let per_owner =
    Array.of_list
      (List.map (fun o -> (o, counters_of_cell t.cells.(o))) (owners t))
  in
  let totals =
    Array.fold_left
      (fun acc (_, c) ->
        Array.iteri
          (fun b v -> acc.clean_bins.(b) <- acc.clean_bins.(b) + v)
          c.clean_bins;
        Array.iteri
          (fun b v -> acc.dirty_bins.(b) <- acc.dirty_bins.(b) + v)
          c.dirty_bins;
        {
          acc with
          clean_time = acc.clean_time + c.clean_time;
          dirty_time = acc.dirty_time + c.dirty_time;
          fills = acc.fills + c.fills;
          evictions = acc.evictions + c.evictions;
          flushes = acc.flushes + c.flushes;
        })
      (zero_counters t.bins) per_owner
  in
  {
    s_bins = t.bins;
    s_horizon = t.horizon;
    s_bin_width = t.bin_width;
    per_owner;
    totals;
  }

module Snapshot = struct
  let totals s = s.totals
  let owners s = Array.to_list (Array.map fst s.per_owner)
  let bins s = s.s_bins
  let horizon s = s.s_horizon
  let bin_width s = s.s_bin_width

  let owner s o =
    let a = s.per_owner in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    let found = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let o', c = a.(mid) in
      if o' = o then begin
        found := Some c;
        lo := !hi + 1
      end
      else if o' < o then lo := mid + 1
      else hi := mid - 1
    done;
    match !found with Some c -> c | None -> zero_counters s.s_bins

  let resident_time (c : counters) = c.clean_time + c.dirty_time

  let resident_bins (c : counters) =
    Array.init (Array.length c.clean_bins) (fun b ->
        c.clean_bins.(b) + c.dirty_bins.(b))

  let dirty_fraction (c : counters) =
    let total = resident_time c in
    if total = 0 then 0.0 else float_of_int c.dirty_time /. float_of_int total

  let mean_resident_lines s (c : counters) =
    if s.s_horizon = 0 then 0.0
    else float_of_int (resident_time c) /. float_of_int s.s_horizon
end

(* Integer addition only, so the merged accumulator is independent of
   merge order. *)
let merge ~into src =
  if into.bins <> src.bins || into.horizon <> src.horizon then
    invalid_arg
      (Printf.sprintf
         "Residency.merge: geometry mismatch (bins %d/%d, horizon %d/%d)"
         into.bins src.bins into.horizon src.horizon);
  Array.iteri
    (fun owner (c : cell) ->
      if not (is_empty c) then begin
        let acc = ensure into owner in
        acc.clean_time <- acc.clean_time + c.clean_time;
        acc.dirty_time <- acc.dirty_time + c.dirty_time;
        acc.fills <- acc.fills + c.fills;
        acc.evictions <- acc.evictions + c.evictions;
        acc.flushes <- acc.flushes + c.flushes;
        Array.iteri
          (fun b v -> acc.clean_bins.(b) <- acc.clean_bins.(b) + v)
          c.clean_bins;
        Array.iteri
          (fun b v -> acc.dirty_bins.(b) <- acc.dirty_bins.(b) + v)
          c.dirty_bins
      end)
    src.cells

let reset t =
  Array.iter
    (fun (c : cell) ->
      c.clean_time <- 0;
      c.dirty_time <- 0;
      c.fills <- 0;
      c.evictions <- 0;
      c.flushes <- 0;
      Array.fill c.clean_bins 0 (Array.length c.clean_bins) 0;
      Array.fill c.dirty_bins 0 (Array.length c.dirty_bins) 0)
    t.cells
