(** Cache configurations (paper Table IV).

    A configuration describes a single (last-level) set-associative cache:
    associativity [CA], number of sets [NA], line length [CL] and the derived
    capacity [Cc = CA * NA * CL].  The paper restricts its analysis to the
    LLC, "because it has the largest impact on the number of main memory
    accesses within the cache hierarchy".

    Note: Table IV's stated capacities for its "1MB" and "8MB" profiling
    configurations do not match their own parameters (CA*NA*CL gives 768 KB
    and 4 MB respectively).  We keep the parameters verbatim — they are what
    the paper's results were actually produced with — but name the configs
    by their true capacities ("768KB", "4MB") so {!capacity} and the label
    always agree. *)

type t = private {
  name : string;
  associativity : int;  (** CA *)
  sets : int;           (** NA; must be a power of two *)
  line : int;           (** CL in bytes; must be a power of two *)
}

val make : name:string -> associativity:int -> sets:int -> line:int -> t
(** Validates positivity of all fields and power-of-two constraints on
    [sets] and [line]; raises [Invalid_argument] (naming the offending
    value) otherwise.  Associativity need not be a power of two (Table IV
    uses 6-way).  The constraints are load-bearing: {!Cache.create}
    derives a mask from [sets] and a shift from [line]. *)

val row : t Dvf_util.Row.t
(** The wire declaration of {!t} (["cache config"]).  Decoding goes
    through {!make}, so a bad geometry is a decode error. *)

val is_power_of_two : int -> bool
(** [true] iff the argument is a positive power of two. *)

val capacity : t -> int
(** [Cc = CA * NA * CL] in bytes. *)

val blocks : t -> int
(** Total number of cache blocks [CA * NA]. *)

val small_verification : t
(** Table IV "Small (Verification)": 4-way, 64 sets, 32 B lines, 8 KB. *)

val large_verification : t
(** Table IV "Large (Verification)": 16-way, 4096 sets, 64 B lines, 4 MB. *)

val profiling_16kb : t
(** Table IV "16KB (Profiling)": 2-way, 1024 sets, 8 B lines. *)

val profiling_128kb : t
(** Table IV "128KB (Profiling)": 4-way, 2048 sets, 16 B lines. *)

val profiling_768kb : t
(** Table IV "1MB (Profiling)": 6-way, 4096 sets, 32 B lines — actually
    768 KB, and named accordingly here. *)

val profiling_4mb : t
(** Table IV "8MB (Profiling)": 8-way, 8192 sets, 64 B lines — actually
    4 MB, and named accordingly here. *)

val profiling_set : t list
(** The four profiling configurations in Table IV order. *)

val verification_set : t list
(** Small and large verification configurations. *)

val hierarchy_of : levels:int -> t -> t list
(** Derive an L1..L[levels] hierarchy from a base configuration: level 1
    is the base itself (unchanged, name included); each deeper level
    keeps the associativity and line size and has 8x the sets of the
    level above, named ["<base>/L2"], ["<base>/L3"].  Sharing one line
    size is required by {!Hierarchy.create}.  Raises [Invalid_argument]
    unless [1 <= levels <= 3]. *)

val pp : Format.formatter -> t -> unit
