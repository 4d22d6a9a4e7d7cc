let render_bars ~width ~title ~transform series =
  let buf = Buffer.create 256 in
  (match title with Some t -> Buffer.add_string buf (t ^ "\n") | None -> ());
  let label_width =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 series
  in
  let values = List.map (fun (_, v) -> transform (Float.max v 0.0)) series in
  let vmax = List.fold_left Float.max 0.0 values in
  List.iter2
    (fun (label, raw) v ->
      let filled =
        if vmax <= 0.0 then 0
        else int_of_float (Float.round (v /. vmax *. float_of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s%s %s\n" label_width label
           (String.concat "" (List.init filled (fun _ -> "\xe2\x96\x88")))
           (String.make (max 0 (width - filled)) ' ')
           (if Float.is_integer raw then Printf.sprintf "%.0f" raw
            else Printf.sprintf "%.2f" raw)))
    series values;
  Buffer.contents buf

let bars ?(width = 50) ?title series =
  render_bars ~width ~title ~transform:Fun.id series

let log_bars ?(width = 50) series =
  render_bars ~width ~title:None
    ~transform:(fun v -> if v <= 1.0 then 0.0 else log v /. log 2.0)
    series

let spark values =
  match values with
  | [] -> ""
  | _ ->
    let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                    "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |] in
    let lo = List.fold_left Float.min infinity values in
    let hi = List.fold_left Float.max neg_infinity values in
    let scale v =
      if hi <= lo then 0
      else min 7 (int_of_float ((v -. lo) /. (hi -. lo) *. 8.0))
    in
    String.concat "" (List.map (fun v -> glyphs.(scale v)) values)
