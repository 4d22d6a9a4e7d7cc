module Bits = Ftagg_util.Bits

type how = Via_slot of int | Via_brute_force

type node = Tradeoff.node

let slots (p : Params.t) = max 1 (Bits.bits_for p.Params.n) + 1

let max_rounds p = (slots p * Tradeoff.interval_len p) + (2 * Params.cd p) + 1

(* Slot g is execution tag g + 1 with t = 2^g, in interval g + 1. *)
let plan p =
  let slots = slots p in
  {
    Tradeoff.params = p;
    starts = (fun _ -> List.init slots (fun g -> g + 1));
    pair_params = (fun tag -> Params.with_t p (1 lsl (tag - 1)));
    fallback = (slots * Tradeoff.interval_len p) + 1;
    spans = false;
  }

let protocol p = Tradeoff.drive (plan p)

let root_result = Tradeoff.root_result

let root_how node =
  match Tradeoff.root_how node with
  | Tradeoff.Via_pair tag -> Via_slot (tag - 1)
  | Tradeoff.Via_brute_force -> Via_brute_force
