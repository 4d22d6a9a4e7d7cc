module Bits = Ftagg_util.Bits

let sum =
  {
    Caaf.name = "sum";
    identity = 0;
    combine = ( + );
    domain_bits = (fun ~n ~max_input -> Bits.bits_for_value (n * max_input));
    monotonicity = Increasing;
  }

let count =
  {
    Caaf.name = "count";
    identity = 0;
    combine = ( + );
    domain_bits = (fun ~n ~max_input:_ -> Bits.bits_for_value n);
    monotonicity = Increasing;
  }

let max_ =
  {
    Caaf.name = "max";
    identity = 0;
    combine = max;
    domain_bits = (fun ~n:_ ~max_input -> Bits.bits_for_value max_input);
    monotonicity = Increasing;
  }

(* MIN's identity (the aggregate of zero inputs) is +infinity; [max_int]
   stands in for it and is never encoded on the wire because every partial
   sum a protocol sends aggregates at least the sender's own input. *)
let min_ =
  {
    Caaf.name = "min";
    identity = max_int;
    combine = min;
    domain_bits = (fun ~n:_ ~max_input -> Bits.bits_for_value max_input);
    monotonicity = Decreasing;
  }

let bool_or =
  {
    Caaf.name = "or";
    identity = 0;
    combine = (fun a b -> if a + b > 0 then 1 else 0);
    domain_bits = (fun ~n:_ ~max_input:_ -> 1);
    monotonicity = Increasing;
  }

let bool_and =
  {
    Caaf.name = "and";
    identity = 1;
    combine = (fun a b -> if a = 1 && b = 1 then 1 else 0);
    domain_bits = (fun ~n:_ ~max_input:_ -> 1);
    monotonicity = Decreasing;
  }

let rec euclid a b = if b = 0 then a else euclid b (a mod b)

(* GCD only decreases under set growth while the running aggregate is
   non-zero; the identity 0 (top of the divisibility order, bottom
   numerically) breaks numeric monotonicity when all-zero input sets are
   possible, so the interval checker treats it as non-monotone. *)
let gcd =
  {
    Caaf.name = "gcd";
    identity = 0;
    combine = euclid;
    domain_bits = (fun ~n:_ ~max_input -> Bits.bits_for_value max_input);
    monotonicity = Non_monotone;
  }

let modsum m =
  if m < 2 then invalid_arg "Instances.modsum: modulus must be >= 2";
  {
    Caaf.name = Printf.sprintf "modsum(%d)" m;
    identity = 0;
    combine = (fun a b -> (a + b) mod m);
    domain_bits = (fun ~n:_ ~max_input:_ -> Bits.bits_for_value (m - 1));
    monotonicity = Non_monotone;
  }

let pack2 ~bits a b =
  if bits < 1 || bits > 30 then invalid_arg "Instances.pack2: need 1 <= bits <= 30";
  if a < 0 || a >= 1 lsl bits || b < 0 || b >= 1 lsl bits then
    invalid_arg "Instances.pack2: component out of range";
  a lor (b lsl bits)

let unpack2 ~bits v = (v land ((1 lsl bits) - 1), v lsr bits)

let packed2 ~bits (a : Caaf.t) (b : Caaf.t) =
  if bits < 1 || bits > 30 then invalid_arg "Instances.packed2: need 1 <= bits <= 30";
  let monotonicity =
    match (a.Caaf.monotonicity, b.Caaf.monotonicity) with
    | Caaf.Increasing, Caaf.Increasing -> Caaf.Increasing
    | Caaf.Decreasing, Caaf.Decreasing -> Caaf.Decreasing
    | _ -> Caaf.Non_monotone
  in
  {
    Caaf.name = Printf.sprintf "packed(%s,%s)" a.Caaf.name b.Caaf.name;
    identity = pack2 ~bits a.Caaf.identity b.Caaf.identity;
    combine =
      (fun x y ->
        let xa, xb = unpack2 ~bits x and ya, yb = unpack2 ~bits y in
        pack2 ~bits (a.Caaf.combine xa ya) (b.Caaf.combine xb yb));
    domain_bits = (fun ~n:_ ~max_input:_ -> 2 * bits);
    monotonicity;
  }

let all = [ sum; count; max_; min_; bool_or; bool_and; gcd; modsum 97 ]

let of_name name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun c -> c.Caaf.name = name) [ sum; count; max_; min_; bool_or; bool_and; gcd ]
