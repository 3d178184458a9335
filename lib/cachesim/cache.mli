(** Set-associative LRU cache simulator.

    This is the reproduction's substitute for the authors' "configurable
    cache simulator" (paper §IV): it consumes a per-structure address
    stream (from {!Memtrace}) and reports LLC misses and writebacks per
    data structure, which together define the measured number of main
    memory accesses the analytical models are verified against (Fig. 4).

    The replacement policy is strict LRU within each set, matching the
    paper ("the cache simulation is based on the popular LRU algorithm and
    can report the number of cache misses and writebacks").  Writes
    allocate (write-allocate, write-back). *)

type t

val create : Config.t -> t

val config : t -> Config.t
val stats : t -> Stats.t

(** {2 Logical event clock and residency tracking}

    The cache keeps a logical clock [now]: the ordinal of the reference
    event being processed ({!access_batch} sets it per event and leaves
    it past the batch, {!access}/{!touch_line} advance it by one per
    call).  Attaching a {!Residency.t} turns on per-line phase
    accounting on that clock: every resident line carries the start
    time of its current clean or dirty phase, and fills, first dirtying
    writes, evictions and flushes close the open phase into the
    accumulator. *)

val now : t -> int

val set_now : t -> int -> unit
(** Pin the clock — the replay driver sets it to the tape length (the
    run horizon) before {!flush} so end-of-run phase closures count
    exposure up to the horizon and no further.  Raises
    [Invalid_argument] on a negative time. *)

val attach_residency : t -> Residency.t -> unit
(** Start recording residency phases into the accumulator.  Attach
    before the first access (phase-start stamps are reset to 0). *)

val residency : t -> Residency.t option

val access : t -> owner:int -> write:bool -> addr:int -> size:int -> unit
(** Simulate one program reference of [size] bytes at byte address [addr]
    by owner (data structure) [owner].  The reference is split at cache-line
    boundaries; each touched line is looked up, counted as hit or miss, and
    installed on miss (evicting the set's LRU line, recording a writeback if
    dirty).  Raises [Invalid_argument] if [size <= 0] or [addr < 0]. *)

val touch_line : t -> owner:int -> write:bool -> line_addr:int -> bool
(** Low-level single-line lookup used by the trace driver and tests;
    [line_addr] is a byte address (any byte within the line).  Returns
    [true] on hit. *)

(** {2 Packed bulk interface}

    The hot path for replaying captured traces ({!Memtrace.Tape}): events
    are stored columnar as two unboxed [int] arrays — byte address, and a
    metadata word from {!pack_access} — and a whole chunk is driven
    through the simulator with one call. *)

val max_size : int
(** Largest reference size {!pack_access} can encode: [2^30 - 1]. *)

val max_owner : int
(** Largest owner id {!pack_access} can encode. *)

val pack_access : owner:int -> write:bool -> size:int -> int
(** Pack one reference's metadata: bit 0 is the write flag, bits 1..30
    the size in bytes, the remaining high bits the owner id.  Raises
    [Invalid_argument] when [size] is outside [1 .. 2^30 - 1] or [owner]
    outside [0 .. max_int lsr 31] — far beyond anything the region
    registry hands out, but a loud failure beats silent truncation. *)

val unpack_access : int -> int * bool * int
(** [(owner, write, size)] of a word built by {!pack_access}. *)

val access_batch :
  ?times:int array ->
  ?fill:(owner:int -> line:int -> unit) ->
  ?spill:(owner:int -> line:int -> unit) ->
  t -> addrs:int array -> metas:int array -> pos:int -> len:int -> unit
(** The simulation kernel: simulate [addrs.(pos .. pos+len-1)] (with
    matching {!pack_access} metadata in [metas]) as if each were passed
    to {!access} in order — same line splitting, same statistics, one
    bounds check and one call for the whole block.  Every replay path
    (tapes, hierarchy levels, the single-reference entry points) runs
    through it.

    [fill ~owner ~line] is called for every line miss (the demand fetch)
    and [spill ~owner ~line] for every dirty eviction (the write-back),
    with [line] the line {e number}; a victim's spill is reported before
    the missing line's fill.  A next cache level consumes these.

    [times] supplies explicit event ordinals (non-decreasing): the clock
    is set to [times.(i)] before event [i] and stays at the last one
    afterwards.  Without it event [i] runs at [now + (i - pos)] and the
    clock ends at [now + len].  A deeper hierarchy level's fills and
    spills carry the {e originating} program-event times this way.

    Raises [Invalid_argument] on a range outside any of the arrays or
    on a negative address; a rejected batch leaves the cache
    untouched. *)

val flush : ?spill:(owner:int -> line:int -> unit) -> t -> unit
(** Evict everything, recording writebacks for dirty lines.  Called at the
    end of a simulation when the experiment counts end-of-run evictions.
    Every dirty line's write-back is also handed to [spill] (slot order),
    so a next cache level can absorb end-of-run traffic.  With residency
    attached, every surviving line's open phase is closed at the current
    clock (set {!set_now} to the run horizon first). *)

val invalidate : t -> unit
(** Drop all contents without recording writebacks (cold restart between
    phases). *)

val resident_lines : t -> owner:int -> int
(** Number of lines currently cached for [owner] — used by tests and by the
    reuse-model validation experiments. *)
