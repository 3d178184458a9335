(** Template-based access-pattern model (paper §III-C, "Template-Based
    Access Pattern").

    The user supplies the access template — the ordered sequence of element
    references the pseudocode performs (see {!Template_lang} for the
    generator syntax that builds these sequences).  The model lowers
    elements to cache blocks and runs the paper's two-step algorithm:

    + a block referenced for the first time is a main-memory access;
    + a re-referenced block is a main-memory access iff the distance to its
      previous reference exceeds the maximum available cache capacity.

    "Distance" is the LRU stack distance (number of {e distinct} blocks
    referenced in between); with an LRU cache of [B] available blocks, a
    re-reference misses iff its stack distance is at least [B].  A [`Raw]
    distance variant (plain count of intervening references, the literal
    reading of the paper's "distance") is kept for the ablation bench.

    The model runs the algorithm directly at the one capacity a cache
    offers: one pass of a fully associative LRU cache of
    {!available_blocks} blocks over the block trace, with dirty blocks
    written back on eviction and at the end.  A template keeps the result
    of each (line size, capacity) it has been asked for, so every later
    query of the same cache geometry is a lookup. *)

type distance_kind = [ `Stack | `Raw ]

type memo
(** The template's results per (line size, capacity), filled on first
    use. *)

type t = private {
  elem_size : int;       (** E, bytes *)
  refs : int array;      (** element indices in access order *)
  writes : Bytes.t option;
      (** Per-reference store flags, one byte each (same length as
          [refs]; ['\000'] is a load, any other byte a store); [None]
          means all loads.  Stores dirty their block, and a dirty block's
          eviction is a writeback — counted as a main-memory access, like
          the cache simulator's misses + writebacks. *)
  cache_ratio : float;   (** share of the cache available, (0,1] *)
  distance : distance_kind;
  memo : memo;
}
(** Private, so a [{ t with ... }] copy cannot carry another template's
    results: build variants with {!make}. *)

val make :
  ?cache_ratio:float -> ?distance:distance_kind -> ?writes:Bytes.t ->
  elem_size:int -> int array -> t
(** [make ~elem_size refs] with [cache_ratio] defaulting to 1.0 and
    [distance] to [`Stack].  Raises [Invalid_argument] on a non-positive
    element size, negative indices, a ratio outside (0,1], or [writes]
    whose length differs from [refs]. *)

val available_blocks : cache:Cachesim.Config.t -> t -> int
(** [floor (Cc * r / CL)], at least 1. *)

val main_memory_accesses : cache:Cachesim.Config.t -> t -> float
(** Misses plus writebacks for one execution of the template on a fully
    associative LRU cache of {!available_blocks} blocks of the cache's
    line size.  Computed on the first call for a (line size, capacity)
    and looked up by every later one; safe to call from several domains
    at once.  Memory follows the number of distinct blocks the template
    touches, never the capacity or the largest element index. *)

val distinct_blocks : cache:Cachesim.Config.t -> t -> int
(** The number of distinct blocks of the cache's line size the template
    touches (its first-touch misses), from the same memoized pass as
    {!main_memory_accesses}. *)

val pp : Format.formatter -> t -> unit
