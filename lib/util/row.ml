type _ ty =
  | Int : int ty
  | Float : float ty
  | Str : string ty
  | Floats : float array ty
  | Opt : 'a ty -> 'a option ty
  | Row : 'a t -> 'a ty
  | Rows : 'a t -> 'a list ty

and 'r t =
  | T : { name : string; fields : ('r, 'c) fields; make : 'c; all : 'r any list }
      -> 'r t

and ('r, 'a) field = { label : string; ty : 'a ty; get : 'r -> 'a }
and 'r any = Any : ('r, 'a) field -> 'r any

(* These constructors shadow the list ones for the rest of this file,
   where a plain list is written [List.[]] or [List.(x :: xs)]. *)
and ('r, 'c) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'c) fields -> ('r, 'a -> 'c) fields

let rec to_list : type r c. (r, c) fields -> r any list = function
  | [] -> List.[]
  | f :: rest -> List.(Any f :: to_list rest)

let field label ty get = { label; ty; get }
let make name fields make = T { name; fields; make; all = to_list fields }
let fail fmt = Printf.ksprintf failwith fmt

let rec encode : type a. a ty -> a -> Json.t =
 fun ty v ->
  match ty with
  | Int -> Json.Int v
  | Float -> Json.Float v
  | Str -> Json.Str v
  | Floats -> Json.List (Array.to_list (Array.map (fun f -> Json.Float f) v))
  | Opt ty -> ( match v with Some v -> encode ty v | None -> Json.Null)
  | Row t -> to_json t v
  | Rows t -> Json.List (List.map (to_json t) v)

and to_json : type r. r t -> r -> Json.t =
 fun (T t) r ->
  Json.Obj (List.map (fun (Any f) -> (f.label, encode f.ty (f.get r))) t.all)

let rec decode : type a. a ty -> Json.t -> a =
 fun ty j ->
  match (ty, j) with
  | Int, Json.Int i -> i
  | Int, _ -> failwith "expected an integer"
  | Float, Json.Int i -> float_of_int i
  | Float, Json.Float f -> f
  | Float, _ -> failwith "expected a number"
  | Str, Json.Str s -> s
  | Str, _ -> failwith "expected a string"
  | Floats, Json.List vs -> Array.of_list (List.map (decode Float) vs)
  | Floats, _ -> failwith "expected a list of numbers"
  | Opt _, Json.Null -> None
  | Opt ty, j -> Some (decode ty j)
  | Row t, j -> of_json t j
  | Rows t, Json.List vs -> List.map (of_json t) vs
  | Rows _, _ -> failwith "expected a list of objects"

and of_json : type r. r t -> Json.t -> r =
 fun (T t) j ->
  match j with
  | Json.Obj _ -> (
      (* The constructor runs when its last argument arrives, inside
         [build]; whatever it rejects is reported as this row's fault. *)
      try build t.fields t.make j
      with Failure msg | Invalid_argument msg -> fail "%s: %s" t.name msg)
  | _ -> fail "%s: expected an object" t.name

and build : type r c. (r, c) fields -> c -> Json.t -> r =
 fun fields k j ->
  match fields with
  | [] -> k
  | f :: rest -> (
      match Json.member f.label j with
      | None -> fail "missing field %S" f.label
      | Some v ->
          let v =
            try decode f.ty v with Failure m -> fail "field %S: %s" f.label m
          in
          build rest (k v) j)

let rows_of_result (T { name; _ } as t) result =
  match Json.member "rows" result with
  | Some (Json.List rows) -> List.map (of_json t) rows
  | _ -> fail "%s: result has no \"rows\" list" name

let csv_header (T t) = List.map (fun (Any f) -> f.label) t.all

let cell : type a. a ty -> a -> string =
 fun ty v ->
  match ty with
  | Int -> string_of_int v
  | Float -> Printf.sprintf "%.17g" v
  | Str -> v
  | ty -> Json.to_string ~indent:false (encode ty v)

let csv_cells (T t) r = List.map (fun (Any f) -> cell f.ty (f.get r)) t.all
