let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Log2-scaled buckets: slot i holds observations in (2^(i-1), 2^i],
   slot 0 holds v <= 1, the last slot is the overflow (+Inf).  2^38 ~ 3e11
   comfortably covers bit totals and microsecond latencies. *)
let n_buckets = 40

type hist_acc = {
  mutable hc_count : int;
  mutable hc_sum : float;
  mutable hc_min : float;
  mutable hc_max : float;
  hc_buckets : int array;
}

type cell =
  | C_counter of { mutable c : int }
  | C_gauge of { mutable g : float }
  | C_hist of hist_acc

type t = { tbl : (string * (string * string) list, cell) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let canon labels = List.sort compare labels

let kind_name = function
  | C_counter _ -> "counter"
  | C_gauge _ -> "gauge"
  | C_hist _ -> "histogram"

let find_or_add t name labels fresh check =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some cell ->
    if not (check cell) then
      invalid_arg
        (Printf.sprintf "Registry: %s already registered as a %s" name (kind_name cell));
    cell
  | None ->
    let cell = fresh () in
    Hashtbl.add t.tbl key cell;
    cell

let incr t ?(labels = []) name k =
  if enabled () then begin
    if k < 0 then invalid_arg "Registry.incr: negative increment";
    match
      find_or_add t name labels
        (fun () -> C_counter { c = 0 })
        (function C_counter _ -> true | _ -> false)
    with
    | C_counter cell -> cell.c <- cell.c + k
    | _ -> assert false
  end

let set_gauge t ?(labels = []) name v =
  if enabled () then
    match
      find_or_add t name labels
        (fun () -> C_gauge { g = v })
        (function C_gauge _ -> true | _ -> false)
    with
    | C_gauge cell -> cell.g <- v
    | _ -> assert false

let slot v =
  if v <= 1.0 then 0
  else
    let rec up i bound = if v <= bound || i = n_buckets - 1 then i else up (i + 1) (bound *. 2.0) in
    up 1 2.0

let fresh_hist () =
  C_hist
    { hc_count = 0; hc_sum = 0.0; hc_min = infinity; hc_max = neg_infinity;
      hc_buckets = Array.make n_buckets 0 }

let observe t ?(labels = []) name v =
  if enabled () then
    match find_or_add t name labels fresh_hist (function C_hist _ -> true | _ -> false) with
    | C_hist h ->
      h.hc_count <- h.hc_count + 1;
      h.hc_sum <- h.hc_sum +. v;
      if v < h.hc_min then h.hc_min <- v;
      if v > h.hc_max then h.hc_max <- v;
      let i = slot v in
      h.hc_buckets.(i) <- h.hc_buckets.(i) + 1
    | _ -> assert false

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist

let bound_of_slot i = if i = n_buckets - 1 then infinity else ldexp 1.0 i

let snapshot_cell = function
  | C_counter { c } -> Counter c
  | C_gauge { g } -> Gauge g
  | C_hist h ->
    let buckets = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.hc_buckets.(i) > 0 then buckets := (bound_of_slot i, h.hc_buckets.(i)) :: !buckets
    done;
    Histogram
      { h_count = h.hc_count; h_sum = h.hc_sum; h_min = h.hc_min; h_max = h.hc_max;
        h_buckets = !buckets }

(* Percentile estimation straight off the log2 buckets: find the bucket
   holding the target rank, then interpolate linearly inside it.  A rank
   landing exactly on a bucket's cumulative count pins the estimate to
   that bucket's upper bound, so power-of-two observations report
   themselves exactly.  The overflow bucket and both tails are clamped to
   the recorded [h_min, h_max], which keeps estimates inside the observed
   range and makes [percentile h 100.0 = h_max]. *)
let percentile (h : hist) p =
  if h.h_count = 0 then invalid_arg "Registry.percentile: empty histogram";
  if p < 0.0 || p > 100.0 || Float.is_nan p then invalid_arg "Registry.percentile: p out of range";
  let clamp v = Float.max h.h_min (Float.min h.h_max v) in
  let rank = p /. 100.0 *. float_of_int h.h_count in
  if rank <= 0.0 then h.h_min
  else
    let rec walk cum = function
      | [] -> h.h_max
      | (upper, count) :: rest ->
        let cum' = cum +. float_of_int count in
        if rank <= cum' then begin
          let lower = if upper <= 1.0 then 0.0 else upper /. 2.0 in
          let upper = if Float.is_finite upper then upper else h.h_max in
          let lower = Float.min lower upper in
          clamp (lower +. ((rank -. cum) /. float_of_int count *. (upper -. lower)))
        end
        else walk cum' rest
    in
    walk 0.0 h.h_buckets

let histogram t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl (name, canon labels) with
  | Some (C_hist _ as cell) -> (
    match snapshot_cell cell with Histogram h -> Some h | _ -> None)
  | Some _ | None -> None

let counter t ?(labels = []) name =
  match Hashtbl.find_opt t.tbl (name, canon labels) with
  | Some (C_counter { c }) -> c
  | Some _ | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.tbl (name, []) with
  | Some (C_gauge { g }) -> Some g
  | Some _ | None -> None

let series t =
  Hashtbl.fold (fun (name, labels) cell acc -> (name, labels, snapshot_cell cell) :: acc) t.tbl []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

let counter_series t name =
  List.filter_map
    (fun (n, labels, v) ->
      match v with Counter c when n = name -> Some (labels, c) | _ -> None)
    (series t)

let merge_into ~into src =
  (* Per-key combination is commutative for counters and histograms and
     last-write-wins for gauges, so merging registries in input order
     makes the result deterministic regardless of Hashtbl iteration
     order (keys are unique within one registry). *)
  Hashtbl.iter
    (fun (name, labels) cell ->
      match Hashtbl.find_opt into.tbl (name, labels) with
      | None ->
        let copy =
          match cell with
          | C_counter { c } -> C_counter { c }
          | C_gauge { g } -> C_gauge { g }
          | C_hist h ->
            C_hist
              { hc_count = h.hc_count; hc_sum = h.hc_sum; hc_min = h.hc_min;
                hc_max = h.hc_max; hc_buckets = Array.copy h.hc_buckets }
        in
        Hashtbl.add into.tbl (name, labels) copy
      | Some (C_counter dst) -> (
        match cell with
        | C_counter { c } -> dst.c <- dst.c + c
        | _ -> invalid_arg (Printf.sprintf "Registry.merge_into: %s kind mismatch" name))
      | Some (C_gauge dst) -> (
        match cell with
        | C_gauge { g } -> dst.g <- g
        | _ -> invalid_arg (Printf.sprintf "Registry.merge_into: %s kind mismatch" name))
      | Some (C_hist dst) -> (
        match cell with
        | C_hist h ->
          dst.hc_count <- dst.hc_count + h.hc_count;
          dst.hc_sum <- dst.hc_sum +. h.hc_sum;
          if h.hc_min < dst.hc_min then dst.hc_min <- h.hc_min;
          if h.hc_max > dst.hc_max then dst.hc_max <- h.hc_max;
          Array.iteri (fun i c -> dst.hc_buckets.(i) <- dst.hc_buckets.(i) + c) h.hc_buckets
        | _ -> invalid_arg (Printf.sprintf "Registry.merge_into: %s kind mismatch" name)))
    src.tbl
