type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
    let n = List.length xs in
    let mu = mean xs in
    let var =
      if n < 2 then 0.0
      else
        List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs
        /. float_of_int (n - 1)
    in
    {
      n;
      mean = mu;
      stddev = sqrt var;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
      median = percentile 50.0 xs;
      p90 = percentile 90.0 xs;
    }

let max_int_list = function
  | [] -> invalid_arg "Stats.max_int_list: empty sample"
  | x :: xs -> List.fold_left max x xs
