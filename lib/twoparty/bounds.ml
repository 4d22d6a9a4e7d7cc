let log2 x = log x /. log 2.0

let logn n = log2 (float_of_int (max 2 n))

let sum_upper_bound ~n ~f ~b =
  (* the theorem is stated for 1 <= f <= N; clamp so the f = 0 display
     degenerates to the log^2 N floor instead of 0 *)
  let f = max f 1 in
  let ln = logn n in
  let fb = float_of_int f /. float_of_int b in
  ((fb *. ln) +. ln) *. Float.min (float_of_int b) (Float.min (float_of_int f) ln)

let sum_lower_bound ~n ~f ~b =
  let f = max f 1 in
  let lb = log2 (float_of_int (max 2 b)) in
  (float_of_int f /. (float_of_int b *. lb)) +. (logn n /. lb)

let brute_force_cc ~n = float_of_int n *. logn n

let folklore_cc ~n ~f = float_of_int f *. logn n

let unionsize_upper ~n ~q =
  (float_of_int n /. float_of_int q *. logn n) +. log2 (float_of_int (max 2 q))

let unionsize_lower ~n ~q =
  Float.max 0.0 ((float_of_int n /. float_of_int q) -. logn n)
