(** Typed row declarations: a row type lists its wire fields once, and
    the JSON encoder, the decoder and the CSV header and cells derive
    from that list.  For example:

    {[
      Row.make "verify row"
        Row.[ field "workload" Str (fun r -> r.workload);
              field "cache" (Row Cachesim.Config.row) (fun r -> r.cache) ]
        (fun workload cache -> { workload; cache })
    ]}

    The constructor takes the values in field order; the list's type
    carries the constructor's, so the two cannot drift apart.  Floats
    travel as [%.17g] ({!Json.to_string}): a decoded row equals the
    encoded one. *)

type _ ty =
  | Int : int ty
  | Float : float ty  (** decodes a JSON integer too *)
  | Str : string ty
  | Floats : float array ty
  | Opt : 'a ty -> 'a option ty  (** [None] is [null] *)
  | Row : 'a t -> 'a ty  (** a nested object *)
  | Rows : 'a t -> 'a list ty

and 'r t
and ('r, 'a) field

and ('r, 'c) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'c) fields -> ('r, 'a -> 'c) fields

val field : string -> 'a ty -> ('r -> 'a) -> ('r, 'a) field
(** [field name ty get]: wire name, type and accessor. *)

val make : string -> ('r, 'c) fields -> 'c -> 'r t
(** [make name fields constructor]; [name] prefixes decoding errors. *)

val to_json : 'r t -> 'r -> Json.t

val of_json : 'r t -> Json.t -> 'r
(** Raises only [Failure "<name>: ..."], naming the field at fault, on
    a non-object, a missing or mistyped field, or a value the
    constructor rejects with [Failure] or [Invalid_argument]. *)

val rows_of_result : 'r t -> Json.t -> 'r list
(** The ["rows"] list of a response's [result]; raises as {!of_json}. *)

val decode : 'a ty -> Json.t -> 'a
(** One value; raises only [Failure]. *)

val csv_header : 'r t -> string list

val csv_cells : 'r t -> 'r -> string list
(** [%d] integers, [%.17g] floats, verbatim strings, compact JSON for
    anything else; quote with {!Table.csv_line}. *)
