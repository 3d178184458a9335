(** Fenwick (binary indexed) tree over [0 .. n-1] with integer weights.

    Used by the template-pattern model to compute LRU stack (reuse)
    distances in O(log n) per access. *)

type t

val create : int -> t
(** All-zero tree of the given size.  Raises [Invalid_argument] if the size
    is negative. *)

val reset_ones : t -> int -> unit
(** [reset_ones t k] sets weight 1 at indices [0 .. k-1] and 0 elsewhere,
    in O(size).  Raises [Invalid_argument] unless [0 <= k <= size t]. *)

val size : t -> int

val add : t -> int -> int -> unit
(** [add t i delta] adds [delta] at index [i]. *)

val prefix_sum : t -> int -> int
(** [prefix_sum t i] is the sum of weights at indices [0 .. i] ([0] when
    [i < 0]). *)

val range_sum : t -> lo:int -> hi:int -> int
(** Sum over [lo .. hi] inclusive; 0 when the range is empty. *)

val total : t -> int
