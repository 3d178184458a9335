(** Registry of named reference-stream generators for template patterns.

    Some kernels' access templates cannot be written down declaratively —
    an FFT's butterfly passes or a multigrid V-cycle's hierarchy walk are
    produced by {e executing} the loop nest with phantom values.  Kernel
    modules register those generators here under stable names
    (["ft/X"], ["mg/R"], ...); an Aspen model then references one with
    [pattern template(elem = 16, provider = "ft/X")] and the compiler
    resolves the reference at lowering time.

    A provider receives the model's integer-valued parameters and returns
    the element-reference sequence plus optional per-reference store
    flags — exactly the inputs of {!Template.make}. *)

type env = (string * int) list
(** The integer-valued app parameters, name -> value. *)

type t = env -> int array * Bytes.t option
(** [provider env] is [(refs, writes)]; may raise [Failure] on a missing
    or invalid parameter. *)

val register : string -> t -> unit
(** Raises [Invalid_argument] if the name is already taken. *)

val find : string -> t option

val names : unit -> string list
(** Registered names, in registration order. *)
