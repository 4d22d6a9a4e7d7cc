type t = {
  mutable bits : int array;
  mutable msgs : int array;
  mutable last_round : int;
  mutable visits : int;
  mutable steps : int;
}

let create n = { bits = Array.make n 0; msgs = Array.make n 0; last_round = 0; visits = 0; steps = 0 }

let charge t ~node ~bits =
  if bits < 0 then invalid_arg "Metrics.charge: negative bits";
  t.bits.(node) <- t.bits.(node) + bits;
  if bits > 0 then t.msgs.(node) <- t.msgs.(node) + 1

let note_round t r = if r > t.last_round then t.last_round <- r

let count_work t ~visits ~steps =
  t.visits <- t.visits + visits;
  t.steps <- t.steps + steps

let bits_sent t u = t.bits.(u)
let msgs_sent t u = t.msgs.(u)
let cc t = Array.fold_left max 0 t.bits
let total_bits t = Array.fold_left ( + ) 0 t.bits
let rounds t = t.last_round
let node_visits t = t.visits
let node_steps t = t.steps

(* Two scatters through one fresh array: [bits] into it, then [msgs]
   into the old [bits] array, every slot of which the permutation
   overwrites. *)
let relabel t f =
  let bits = Array.make (Array.length t.bits) 0 and msgs = t.bits in
  Array.iteri (fun u b -> bits.(f u) <- b) t.bits;
  Array.iteri (fun u c -> msgs.(f u) <- c) t.msgs;
  t.bits <- bits;
  t.msgs <- msgs

let merge_into acc m =
  if Array.length acc.bits <> Array.length m.bits then
    invalid_arg "Metrics.merge_into: size mismatch";
  Array.iteri (fun i b -> acc.bits.(i) <- acc.bits.(i) + b) m.bits;
  Array.iteri (fun i c -> acc.msgs.(i) <- acc.msgs.(i) + c) m.msgs;
  acc.last_round <- acc.last_round + m.last_round;
  count_work acc ~visits:m.visits ~steps:m.steps
