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

    One pass over the block trace yields a {!profile} for {e every}
    capacity at once (Mattson's stack algorithm): the cold-miss count, the
    histogram of distances, and — Thompson & Smith's write-back extension
    — the capacities at which each re-reference writes a dirty block back.
    A template computes its profile once per line size and keeps it, so
    every cache with that line size is answered from prefix sums. *)

type distance_kind = [ `Stack | `Raw ]

type memo
(** The template's per-line-size profiles, filled on first use. *)

type t = private {
  elem_size : int;       (** E, bytes *)
  refs : int array;      (** element indices in access order *)
  writes : bool array option;
      (** Per-reference store flags (same length as [refs]); [None] means
          all reads.  Stores dirty their block, and a dirty block's
          eviction is a writeback — counted as a main-memory access, like
          the cache simulator's misses + writebacks. *)
  cache_ratio : float;   (** share of the cache available, (0,1] *)
  distance : distance_kind;
  profiles : memo;
}
(** Private, so a [{ t with ... }] copy cannot carry another template's
    profiles: build variants with {!make}. *)

val make :
  ?cache_ratio:float -> ?distance:distance_kind -> ?writes:bool array ->
  elem_size:int -> int array -> t
(** [make ~elem_size refs] with [cache_ratio] defaulting to 1.0 and
    [distance] to [`Stack].  Raises [Invalid_argument] on a non-positive
    element size, negative indices, a ratio outside (0,1], or a [writes]
    array whose length differs from [refs]. *)

val available_blocks : cache:Cachesim.Config.t -> t -> int
(** [floor (Cc * r / CL)], at least 1. *)

type profile
(** Misses and writebacks of one block trace under a fully associative
    LRU cache of any capacity, for one distance kind. *)

val profile : line:int -> t -> profile
(** The template's profile at line size [line] under its own distance
    kind.  Computed on the first call for a line size and shared by every
    later one (the same value, physically); safe to call from several
    domains at once — a domain that loses the race to publish adopts the
    winner's identical profile.  Raises [Invalid_argument] when
    [line <= 0]. *)

val profile_of_blocks :
  distance:distance_kind -> writes:bool array option -> int array -> profile
(** The profile of an explicit block trace (not memoized).  Block ids may
    be any integers; sparse ones are renumbered, never allocated by
    value.  Raises [Invalid_argument] when [writes] and the trace differ
    in length. *)

val cold_misses : profile -> int
(** First touches: the number of distinct blocks. *)

val misses : profile -> capacity:int -> int
(** Misses of a [capacity]-block cache: cold misses plus re-references at
    distance [>= capacity]. *)

val writebacks : profile -> capacity:int -> int
(** Writebacks of a [capacity]-block cache: dirty blocks evicted, plus
    dirty blocks still resident at the end (an end-of-run flush). *)

val main_memory_accesses : cache:Cachesim.Config.t -> t -> float
(** Misses plus writebacks for one execution of the template at
    {!available_blocks}, from {!profile} at the cache's line size. *)

val pp : Format.formatter -> t -> unit
