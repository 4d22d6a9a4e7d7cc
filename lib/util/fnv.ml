(* A [for] loop, not [String.iter]: a closure would hold [h] in a heap
   ref and box a fresh Int64 per byte; here it stays unboxed. *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h
