(* compare A.jsonl B.jsonl: two sets of [run --out] results, A the
   parent and B the change, paired line by line (run them alternating).
   Per workload and metric: each side's median and quartiles, the share
   of pairs B wins, and for end-to-end metrics a verdict by the rule of
   choosing-metrics §8 with the bounds BENCHMARK.json fixes. *)

open Common

let read_runs path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go acc
        | line -> (
          match Bench_io.of_string line with
          | Ok json -> go (json :: acc)
          | Error e -> failwith (Printf.sprintf "%s: %s" path e))
      in
      go [])

let list_at key j = Option.value ~default:[] (Option.bind (Bench_io.member key j) Bench_io.to_list)
let int_at key j = Option.value ~default:0 (Option.bind (Bench_io.member key j) Bench_io.to_int)
let string_at key j = Option.value ~default:"" (Option.bind (Bench_io.member key j) Bench_io.to_string_v)

(* Per run: workload -> (metric name -> metric), and failed/attempted. *)
let index run =
  List.map
    (fun w ->
      let metrics phase =
        Option.fold ~none:[]
          ~some:(fun r -> List.filter_map metric_of_json (list_at "metrics" r))
          (Bench_io.member phase w)
      in
      (string_at "workload" w, (metrics "timed" @ metrics "traced", int_at "failed" w, int_at "attempted" w)))
    (list_at "workloads" run)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(* Pairs in which [b] beats [a]: reads higher for [sign] = 1, lower for -1. *)
let wins ~sign a b = List.length (List.filter (fun (x, y) -> sign *. (y -. x) > 0.) (List.combine a b))

(* [a] and [b] are paired values.  A gain needs ten pairs, B winning at
   least nine tenths of them (ties count for neither), a median shift
   wider than A's own quartile spread, and no more failures than A.  A
   spread wider than the bound leaves the metric unresolved unless every
   B run beats every A run. *)
let judge ~sign ~bound ~fewer_failures a b =
  let pairs = List.length a in
  let q1, ma, q3 = quartiles a and _, mb, _ = quartiles b in
  let spread = (q3 -. q1) /. Float.abs ma in
  let worse = sign *. (ma -. mb) /. Float.abs ma in
  let all_better =
    let worst_b = List.fold_left (fun acc y -> if sign *. y < sign *. acc then y else acc) (List.hd b) b in
    List.for_all (fun x -> sign *. worst_b > sign *. x) a
  in
  if pairs < 10 then Unresolved
  else if
    float_of_int (wins ~sign a b) >= 0.9 *. float_of_int pairs
    && sign *. (mb -. ma) > q3 -. q1
    && fewer_failures
  then Improved
  else if spread > bound && not all_better then Unresolved
  else if worse > bound then Regressed
  else Unchanged

let main ~benchmark path_a path_b =
  let decl = declared_or_fail benchmark in
  let runs_a = List.map index (read_runs path_a) and runs_b = List.map index (read_runs path_b) in
  let pairs = min (List.length runs_a) (List.length runs_b) in
  if pairs = 0 then failwith "no runs to compare";
  let take n l = List.filteri (fun i _ -> i < n) l in
  let runs_a = take pairs runs_a and runs_b = take pairs runs_b in
  if pairs < 10 then Printf.printf "only %d pairs: verdicts need at least 10\n" pairs;
  let regressed = ref false in
  List.iter
    (fun (workload, (first_metrics, _, _)) ->
      let side runs = List.filter_map (List.assoc_opt workload) runs in
      let sa = side runs_a and sb = side runs_b in
      let failures side = List.fold_left (fun (f, n) (_, f', n') -> (f + f', n + n')) (0, 0) side in
      let fa, na = failures sa and fb, nb = failures sb in
      Printf.printf "\n%s  (%d pairs; failed A %d/%d = %.4f, B %d/%d = %.4f)\n" workload pairs fa na
        (float_of_int fa /. float_of_int (max 1 na)) fb nb
        (float_of_int fb /. float_of_int (max 1 nb));
      Printf.printf "  %-34s %-6s %28s %28s %7s  %s\n" "metric" "unit" "A median [q1, q3]"
        "B median [q1, q3]" "B wins" "verdict";
      List.iter
        (fun (m : metric) ->
          let values side =
            List.filter_map
              (fun (ms, _, _) ->
                List.find_opt (fun (x : metric) -> x.name = m.name) ms
                |> Option.map (fun (x : metric) -> x.value))
              side
          in
          let a = values sa and b = values sb in
          if List.length a = pairs && List.length b = pairs then begin
            let show v =
              let q1, md, q3 = quartiles v in
              Printf.sprintf "%.5g [%.5g, %.5g]" md q1 q3
            in
            let bound = List.assoc_opt m.name decl.bounds in
            let sign = match bound with Some ("higher", _) | None -> 1. | Some _ -> -1. in
            let verdict =
              match bound with
              | Some (_, bound) ->
                let v = judge ~sign ~bound ~fewer_failures:(fb <= fa) a b in
                if v = Regressed then regressed := true;
                verdict_name v
              | None when m.unit = "count" -> if a = b then "same" else "differs"
              | None -> "-"
            in
            Printf.printf "  %-34s %-6s %28s %28s %3d/%-3d  %s\n" m.name m.unit (show a) (show b)
              (wins ~sign a b) pairs verdict
          end)
        first_metrics)
    (List.hd runs_a);
  if !regressed then 1 else 0
