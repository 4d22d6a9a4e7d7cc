type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  offsets : ints;
  targets : ints;
}

let make_ints len : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* Typed, so the Bigarray accesses compile to inline loads and stores. *)
let get (a : ints) i = Bigarray.Array1.unsafe_get a i
let set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

(* ------------------------------------------------------------------ *)
(* Row sorting: in-place quicksort with an insertion-sort tail.  Rows  *)
(* are usually tiny (bounded-degree topologies) but can reach n on     *)
(* dense test graphs, so plain insertion sort is not enough.           *)
(* ------------------------------------------------------------------ *)

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = get a i in
    let j = ref (i - 1) in
    while !j >= lo && get a !j > x do
      set a (!j + 1) (get a !j);
      decr j
    done;
    set a (!j + 1) x
  done

let rec sort_range a lo hi =
  let len = hi - lo in
  if len > 1 then
    if len <= 24 then insertion_sort a lo hi
    else begin
      let x = get a lo and y = get a (lo + (len / 2)) and z = get a (hi - 1) in
      let pivot = max (min x y) (min (max x y) z) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while get a !i < pivot do
          incr i
        done;
        while get a !j > pivot do
          decr j
        done;
        if !i <= !j then begin
          let tmp = get a !i in
          set a !i (get a !j);
          set a !j tmp;
          incr i;
          decr j
        end
      done;
      sort_range a lo (!j + 1);
      sort_range a !i hi
    end

(* ------------------------------------------------------------------ *)
(* Streaming build                                                     *)
(* ------------------------------------------------------------------ *)

(* Endpoints are buffered in chunks that start at 2^10 ints and double
   up to 2^20 (8 MB), so a small graph allocates a few KB and a large one
   a list of 8 MB chunks.  Every size is even, so (u, v) pairs never
   straddle a chunk boundary. *)
let first_chunk = 1 lsl 10
let max_chunk = 1 lsl 20

let of_iter ~n iter =
  if n <= 0 then invalid_arg "Csr.of_iter: n must be positive";
  (* Pass 1: stream endpoint pairs into the chunks.  A full chunk is
     exactly as long as its array. *)
  let full = ref [] in
  let cur = ref (make_ints first_chunk) in
  let len = ref 0 in
  let push x =
    let size = Bigarray.Array1.dim !cur in
    if !len = size then begin
      full := !cur :: !full;
      cur := make_ints (min (2 * size) max_chunk);
      len := 0
    end;
    set !cur !len x;
    incr len
  in
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Csr.of_iter: endpoint out of range";
      if u = v then invalid_arg "Csr.of_iter: self-loop";
      push u;
      push v);
  let iter_pairs f =
    let scan chunk l =
      let i = ref 0 in
      while !i < l do
        f (get chunk !i) (get chunk (!i + 1));
        i := !i + 2
      done
    in
    List.iter (fun c -> scan c (Bigarray.Array1.dim c)) (List.rev !full);
    scan !cur !len
  in
  (* Pass 2: degree count, prefix sums, fill (reusing the degree array as
     per-row cursors). *)
  let deg = make_ints n in
  Bigarray.Array1.fill deg 0;
  iter_pairs (fun u v ->
      set deg u (get deg u + 1);
      set deg v (get deg v + 1));
  let offsets = make_ints (n + 1) in
  set offsets 0 0;
  for u = 0 to n - 1 do
    set offsets (u + 1) (get offsets u + get deg u)
  done;
  let targets = make_ints (get offsets n) in
  for u = 0 to n - 1 do
    set deg u (get offsets u)
  done;
  iter_pairs (fun u v ->
      set targets (get deg u) v;
      set deg u (get deg u + 1);
      set targets (get deg v) u;
      set deg v (get deg v + 1));
  (* Pass 3: sort every row, then compact duplicates in place.  The write
     cursor never overtakes the read cursor, so one array suffices; old
     row bounds are carried in [row_start] because [offsets.(u)] is
     rewritten as soon as row u is compacted. *)
  for u = 0 to n - 1 do
    sort_range targets (get offsets u) (get offsets (u + 1))
  done;
  let w = ref 0 in
  let row_start = ref 0 in
  for u = 0 to n - 1 do
    let lo = !row_start and hi = get offsets (u + 1) in
    row_start := hi;
    set offsets u !w;
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let v = get targets i in
      if v <> !prev then begin
        set targets !w v;
        prev := v;
        incr w
      end
    done
  done;
  set offsets n !w;
  let targets = Bigarray.Array1.sub targets 0 !w in
  { n; m = !w / 2; offsets; targets }

(* One pass in the new order, each new row written behind the last, so
   the offsets need no prefix-sum pass. *)
let renumber t ~new_id ~old_id =
  let offsets = make_ints (t.n + 1) and targets = make_ints (2 * t.m) in
  let w = ref 0 in
  for v = 0 to t.n - 1 do
    set offsets v !w;
    let u = get old_id v in
    for i = get t.offsets u to get t.offsets (u + 1) - 1 do
      set targets !w (get new_id (get t.targets i));
      incr w
    done
  done;
  set offsets t.n !w;
  { t with offsets; targets }

let n t = t.n
let num_edges t = t.m
let degree t u = get t.offsets (u + 1) - get t.offsets u

let max_degree t =
  let m = ref 0 in
  for u = 0 to t.n - 1 do
    m := max !m (degree t u)
  done;
  !m

let iter_neighbors t u f =
  for i = get t.offsets u to get t.offsets (u + 1) - 1 do
    f (get t.targets i)
  done

let bfs t ~dist ~queue src =
  Bigarray.Array1.fill dist (-1);
  set queue 0 src;
  set dist src 0;
  let head = ref 0 and tail = ref 1 in
  let far = ref src and ecc = ref 0 in
  while !head < !tail do
    let u = get queue !head in
    incr head;
    let du = get dist u in
    if du > !ecc then begin
      ecc := du;
      far := u
    end;
    for i = get t.offsets u to get t.offsets (u + 1) - 1 do
      let v = get t.targets i in
      if get dist v < 0 then begin
        set dist v (du + 1);
        set queue !tail v;
        incr tail
      end
    done
  done;
  (!far, !ecc, !tail)
