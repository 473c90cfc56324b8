type align = Left | Right

type row = Cells of string list | Separator

type t = {
  title : string;
  columns : (string * align) list;
  mutable rows : row list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): %d cells, %d columns" t.title (List.length cells)
         (List.length t.columns));
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let rows t = List.rev t.rows

let widths t =
  let w = Array.of_list (List.map (fun (h, _) -> String.length h) t.columns) in
  List.iter
    (function
      | Separator -> ()
      | Cells cells -> List.iteri (fun i c -> if String.length c > w.(i) then w.(i) <- String.length c) cells)
    (rows t);
  w

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let w = widths t in
  let aligns = Array.of_list (List.map snd t.columns) in
  let buf = Buffer.create 256 in
  let rule () =
    Array.iter (fun width -> Buffer.add_string buf ("+" ^ String.make (width + 2) '-')) w;
    Buffer.add_string buf "+\n"
  in
  let line cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf "| ";
        Buffer.add_string buf (pad aligns.(i) w.(i) c);
        Buffer.add_char buf ' ')
      cells;
    Buffer.add_string buf "|\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  rule ();
  line (List.map fst t.columns);
  rule ();
  List.iter
    (function
      | Separator -> rule ()
      | Cells cells -> line cells)
    (rows t);
  rule ();
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  let line cells = Buffer.add_string buf (String.concat "," (List.map csv_escape cells) ^ "\n") in
  line (List.map fst t.columns);
  List.iter
    (function
      | Separator -> ()
      | Cells cells -> line cells)
    (rows t);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let str s = "\"" ^ json_escape s ^ "\"" in
  let arr xs = "[" ^ String.concat "," xs ^ "]" in
  let cells =
    List.filter_map
      (function
        | Separator -> None
        | Cells cs -> Some (arr (List.map str cs)))
      (rows t)
  in
  Printf.sprintf "{\"title\":%s,\"columns\":%s,\"rows\":%s}" (str t.title)
    (arr (List.map (fun (h, _) -> str h) t.columns))
    (arr cells)

let print t = print_string (render t)

let cell_float f = Printf.sprintf "%.2f" f

let cell_ratio f = Printf.sprintf "%.2fx" f
