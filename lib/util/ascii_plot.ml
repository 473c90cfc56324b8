let markers = [| '*'; '+'; 'o'; 'x'; '#'; '@' |]

(* Interior cells of the plot grid. *)
let width = 60

let height = 16

let render ~title ?(x_label = "x") ?(y_label = "y") ~series () =
  let points = List.concat_map snd series in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  (match points with
   | [] -> Buffer.add_string buf "(no data)\n"
   | (x0, y0) :: rest ->
     let fold f init = List.fold_left (fun acc (x, y) -> f acc x y) init rest in
     let xmin = fold (fun acc x _ -> Float.min acc x) x0 in
     let xmax = fold (fun acc x _ -> Float.max acc x) x0 in
     let ymin = Float.min 0.0 (fold (fun acc _ y -> Float.min acc y) y0) in
     let ymax = fold (fun acc _ y -> Float.max acc y) y0 in
     let ymax = if ymax = ymin then ymin +. 1.0 else ymax in
     let xmax = if xmax = xmin then xmin +. 1.0 else xmax in
     let grid = Array.make_matrix height width ' ' in
     let cell_of x y =
       let cx = int_of_float ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1)) in
       let cy = int_of_float ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1)) in
       (max 0 (min (width - 1) cx), max 0 (min (height - 1) cy))
     in
     List.iteri
       (fun i (_, pts) ->
         let marker = markers.(i mod Array.length markers) in
         List.iter
           (fun (x, y) ->
             let cx, cy = cell_of x y in
             grid.(height - 1 - cy).(cx) <- marker)
           pts)
       series;
     (* y axis with three tick labels: max, mid, min. *)
     let label row =
       let frac = float_of_int (height - 1 - row) /. float_of_int (height - 1) in
       ymin +. (frac *. (ymax -. ymin))
     in
     Array.iteri
       (fun row line ->
         let tick = row = 0 || row = height - 1 || row = height / 2 in
         if tick then Buffer.add_string buf (Printf.sprintf "%8.2f |" (label row))
         else Buffer.add_string buf "         |";
         Buffer.add_string buf (String.init width (fun c -> line.(c)));
         Buffer.add_char buf '\n')
       grid;
     Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
     Buffer.add_string buf
       (Printf.sprintf "          %-8.6g%s%8.6g   (%s vs %s)\n" xmin
          (String.make (max 1 (width - 16)) ' ')
          xmax x_label y_label);
     List.iteri
       (fun i (name, _) ->
         Buffer.add_string buf (Printf.sprintf "          %c %s\n" markers.(i mod Array.length markers) name))
       series);
  Buffer.contents buf
