(** Per-owner clean/dirty residency-time accounting.

    The access-count {!Stats} answer "how often is a structure's data
    touched"; this accumulator answers "how {e long} does it sit in the
    cache, and in what state" — the quantity Jaulmes et al. ("Memory
    Vulnerability: A Case for Delaying Error Reporting") argue
    vulnerability is actually proportional to.  The clock is the event
    ordinal of the reference stream (tapes give a total order), so all
    integrals are exact integers: a line resident over [t0, t1)
    contributes [t1 - t0] line-events to its owner, split into clean
    phases (recoverable from memory) and dirty phases (the sole copy —
    the unrecoverable exposure window), plus a bounded
    vulnerability-vs-time histogram of [bins] fixed-width windows over
    [0, horizon).

    Everything is integer addition, so {!merge} is independent of merge
    order. *)

type t

val default_bins : int
(** 20. *)

val max_bins : int
(** 65536.  Every owner holds two [bins]-long histograms, so an
    unbounded width from a request could ask for gigabytes. *)

val create : ?bins:int -> horizon:int -> unit -> t
(** [horizon] is the run length in events (intervals are clamped to
    [0, horizon]); [bins] (default {!default_bins}) the histogram width.
    Raises [Invalid_argument], before allocating anything, unless
    [1 <= bins <= max_bins], or on a negative horizon. *)

val bins : t -> int
val horizon : t -> int

val bin_width : t -> int
(** [max 1 (ceil (horizon / bins))]; the last bin may be partial. *)

val record_interval : t -> owner:int -> dirty:bool -> t0:int -> t1:int -> unit
(** Close one residency phase: line owned by [owner] sat entirely clean
    or entirely dirty over [t0, t1) (event ordinals; clamped to
    [0, horizon], empty after clamping is a no-op).  Raises
    [Invalid_argument] if [t1 < t0] or [owner < 0]. *)

val record_fill : t -> owner:int -> unit
val record_eviction : t -> owner:int -> unit
val record_flush : t -> owner:int -> unit

val owners : t -> int list
(** Owners with any recorded activity, ascending. *)

type counters = {
  clean_time : int;   (** line-events resident and clean *)
  dirty_time : int;   (** line-events resident and dirty *)
  fills : int;
  evictions : int;
  flushes : int;      (** lines closed by an end-of-run flush *)
  clean_bins : int array;
  dirty_bins : int array;
}

type snapshot = {
  s_bins : int;
  s_horizon : int;
  s_bin_width : int;
  per_owner : (int * counters) array;  (** active owners, ascending *)
  totals : counters;
}

val snapshot : t -> snapshot
(** Immutable capture (bin arrays are copied). *)

module Snapshot : sig
  val totals : snapshot -> counters
  val owners : snapshot -> int list
  val bins : snapshot -> int
  val horizon : snapshot -> int
  val bin_width : snapshot -> int

  val owner : snapshot -> int -> counters
  (** All-zero counters for owners not in the snapshot. *)

  val resident_time : counters -> int
  (** [clean_time + dirty_time]. *)

  val resident_bins : counters -> int array
  (** Element-wise [clean_bins + dirty_bins]. *)

  val dirty_fraction : counters -> float
  (** [dirty_time / resident_time], 0 when nothing was resident. *)

  val mean_resident_lines : snapshot -> counters -> float
  (** [resident_time / horizon] — the owner's average cached footprint
      in lines over the whole run. *)
end

val merge : into:t -> t -> unit
(** Add every integral and histogram of the source into [into].  Raises
    [Invalid_argument] on mismatched bins/horizon. *)

val reset : t -> unit
