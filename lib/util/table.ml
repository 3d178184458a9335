type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string option;
  header : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?title columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { title; header = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.header then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Separator :: t.rows

let rows_in_order t = List.rev t.rows

let widths t =
  let n = List.length t.header in
  let w = Array.make n 0 in
  let measure cells =
    List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) cells
  in
  measure t.header;
  List.iter (function Cells c -> measure c | Separator -> ()) (rows_in_order t);
  w

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let w = widths t in
  let buf = Buffer.create 1024 in
  let hline () =
    Buffer.add_char buf '+';
    Array.iter
      (fun width ->
        Buffer.add_string buf (String.make (width + 2) '-');
        Buffer.add_char buf '+')
      w;
    Buffer.add_char buf '\n'
  in
  let line aligns cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  hline ();
  line (List.map (fun _ -> Left) t.header) t.header;
  hline ();
  List.iter
    (function
      | Cells c -> line t.aligns c
      | Separator -> hline ())
    (rows_in_order t);
  hline ();
  Buffer.contents buf

let print t = print_string (render t); print_newline ()

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_line cells = String.concat "," (List.map csv_field cells) ^ "\n"

let to_csv t =
  String.concat ""
    (List.map csv_line
       (t.header
       :: List.filter_map
            (function Cells c -> Some c | Separator -> None)
            (rows_in_order t)))

let cell_float ?(digits = 4) x =
  let a = abs_float x in
  if x = 0.0 then "0"
  else if a >= 1.0e7 || a < 1.0e-4 then Printf.sprintf "%.*e" (max 1 (digits - 1)) x
  else if Float.is_integer x && a < 1.0e7 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.*g" (digits + 2) x

let cell_int = string_of_int
