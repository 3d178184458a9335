(** Capture-once / replay-many trace tapes.

    The paper's verification methodology collects one memory trace per
    application and feeds it to the cache simulator at many
    configurations (§IV, Fig. 4/6).  A [Tape.t] is that trace: a
    compact, append-only columnar buffer — per event one byte address
    and one {!Cachesim.Cache.pack_access} metadata word, stored in
    chunked unboxed [int] arrays ({!bytes_per_event} = 16 on 64-bit) —
    captured from a {!Recorder} once and then replayed into any number
    of caches without re-executing the workload kernel.

    Chunks are allocated at a fixed capacity (default 65536 events),
    large enough to live on the major heap, so capture is O(1) amortized
    per event and stays off the minor collector.  Replay streams whole
    chunks through {!Cachesim.Cache.access_batch}; {!replay_fused}
    drives several caches from a single chunk walk so a multi-geometry
    sweep reads each chunk once while it is hot.

    Chunks may be {e deferred}: {!Tape_io} loads adopt chunks as
    (length, decode) pairs over an mmap'd payload
    ({!append_deferred_chunk}) and the [int] arrays are only
    materialized when a walk first needs them — lock-free and
    idempotent, so concurrent replays may force the same chunk safely.

    Tapes are single-domain values: capture on one domain, then hand the
    (immutable-from-then-on) tape to replay jobs freely — concurrent
    {!replay}s of one tape are safe as long as nobody appends. *)

type t

val create : ?chunk_events:int -> unit -> t
(** [chunk_events] is the per-chunk capacity in events (default 65536).
    Raises [Invalid_argument] when not positive. *)

(** {2 Capture} *)

val append : t -> Event.t -> unit
(** Record one event.  Raises [Invalid_argument] on a negative address
    or on an owner/size outside the packed-word range (see
    {!Cachesim.Cache.pack_access}) — the same events a direct
    {!Cachesim.Cache.access} would reject. *)

val append_batch : t -> Event.t array -> int -> unit
(** [append_batch t events n] records [events.(0 .. n-1)] in order.
    This is the capture fast path: the whole batch is validated up
    front (so a rejected batch leaves the tape untouched) and events
    are then stored in runs split only at chunk boundaries, instead of
    re-checking the boundary and re-validating per event.  Raises
    [Invalid_argument] on a bad count, a negative address, or an
    owner/size outside the packed-word range. *)

val sink : t -> Recorder.sink
(** Per-event capture sink for {!Recorder.add_sink}. *)

val batch_sink : t -> Recorder.batch_sink
(** Chunk capture sink for {!Recorder.add_batch_sink} — the fast path
    when recording from a buffered recorder. *)

(** {2 Replay} *)

val replay_fused : t -> Cachesim.Cache.t array -> unit
(** One pass over the tape driving every cache: for each chunk, replay
    it into each cache (via {!Cachesim.Cache.access_batch}) before
    moving on.  Per-cache statistics are bit-identical to having traced
    the workload directly into each cache. *)

val replay : t -> Cachesim.Cache.t -> unit
(** [replay t c] is [replay_fused t [| c |]]. *)

val replay_hierarchies : t -> Cachesim.Hierarchy.t array -> unit
(** Fused walk over multi-level hierarchies: for each chunk, feed it to
    each hierarchy's L1 before moving on. *)

(** {2 Inspection} *)

val length : t -> int
(** Events captured so far. *)

val chunk_events : t -> int
(** Per-chunk capacity this tape was created with. *)

val chunk_count : t -> int
(** Non-empty chunks currently held. *)

val bytes_per_event : int
(** Storage cost of one event: two machine words. *)

val allocated_bytes : t -> int
(** Total bytes of chunk storage allocated (counts the partial head
    chunk at full capacity — [allocated_bytes t / max 1 (length t)]
    is the real amortized footprint per event). *)

val fold_chunks :
  t ->
  init:'a ->
  f:('a -> addrs:int array -> metas:int array -> len:int -> 'a) ->
  'a
(** Fold over the raw columnar chunks in capture order, without decoding
    or copying — indices [0 .. len-1] of [addrs]/[metas] are live.  The
    arrays are the tape's own storage: callers must not mutate them.
    Every tape walk (the [replay*] functions, {!iter_raw}, {!iter},
    and {!Tape_io.save}) is built on this single fold.  Deferred chunks
    are materialized as the fold reaches them. *)

val materialize : t -> unit
(** Force every deferred chunk's decode now.  Idempotent; useful to
    front-load decode cost (benchmark baselines) or to release the
    mapped file the decoders read from. *)

val iter_raw :
  t -> (addrs:int array -> metas:int array -> len:int -> unit) -> unit
(** Visit the raw columnar chunks in capture order, without decoding —
    indices [0 .. len-1] of [addrs]/[metas] are live.  The arrays are
    the tape's own storage: callers must not mutate them.  This is the
    hook for custom replay kernels. *)

val append_deferred_chunk :
  t -> len:int -> decode:(unit -> int array * int array) -> unit
(** Adopt a chunk lazily — the {!Tape_io} mmap load path: [decode]
    materializes the (exactly [chunk_events t]-long) addr/meta arrays
    from the mapped payload on first use.  [decode] must be pure and
    safe to call from any domain (it may be called more than once under
    a materialization race; one result wins).  A full chunk
    ([len = chunk_events t]) is retired into the filled list; a partial
    one is decoded eagerly and becomes the head.  The tape must
    currently end on a chunk boundary.  Raises [Invalid_argument] on a
    length outside [0 .. chunk_events t], a tape whose head is already
    partially filled, or decoded arrays of the wrong length. *)

val iter : t -> (Event.t -> unit) -> unit
(** Decode and visit every event in capture order. *)

val to_list : t -> Event.t list
(** Decoded events in capture order — tests and small tapes only. *)
