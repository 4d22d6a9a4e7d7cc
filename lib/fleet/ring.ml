(* A seeded consistent-hash ring with virtual nodes.

   Every endpoint contributes [vnodes] points on a 64-bit circle, placed
   by FNV-1a over "endpoint#replica#seed"; a key is routed to the first
   point clockwise of its own hash.  Determinism is the contract: the
   same (endpoints, vnodes, seed) triple builds the same ring in every
   process, so fleet clients agree on job placement without talking to
   each other — and virtual nodes smooth the load so one endpoint does
   not own a disproportionate arc. *)

module Fnv = Ftagg_util.Fnv

type t = {
  points : (int64 * string) array;  (* sorted by hash, unsigned order *)
  members : string list;  (* in construction order, deduplicated *)
  vnodes : int;
  seed : int;
}

let ucompare (a : int64) b = Int64.unsigned_compare a b

let create ?(vnodes = 64) ?(seed = 1) endpoints =
  if endpoints = [] then invalid_arg "Ring.create: no endpoints";
  if vnodes <= 0 then invalid_arg "Ring.create: vnodes must be positive";
  let members = List.sort_uniq compare endpoints in
  let members =
    (* keep first-occurrence order, not sorted order, for reporting *)
    List.filter (fun e -> List.mem e members) endpoints
    |> List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) []
    |> List.rev
  in
  let points =
    List.concat_map
      (fun endpoint ->
        List.init vnodes (fun i ->
            (Fnv.hash (Printf.sprintf "%s#%d#%d" endpoint i seed), endpoint)))
      members
  in
  let points = Array.of_list points in
  Array.sort
    (fun (ha, ea) (hb, eb) ->
      let c = ucompare ha hb in
      if c <> 0 then c else compare ea eb)
    points;
  { points; members; vnodes; seed }

let members t = t.members
let vnodes t = t.vnodes
let seed t = t.seed

let key_hash t key = Fnv.hash (Printf.sprintf "%d|%s" t.seed key)

(* Index of the first point clockwise of [h] (wrapping). *)
let first_at_or_after t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let ph, _ = t.points.(mid) in
    if ucompare ph h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let owner t key =
  let start = first_at_or_after t (key_hash t key) in
  snd t.points.(start)

(* Up to [k] distinct endpoints in ring order starting at the owner —
   the failover preference list for [key]. *)
let successors t key k =
  let n = Array.length t.points in
  let start = first_at_or_after t (key_hash t key) in
  let rec walk i found acc =
    if found >= k || i >= n then List.rev acc
    else
      let _, e = t.points.((start + i) mod n) in
      if List.mem e acc then walk (i + 1) found acc
      else walk (i + 1) (found + 1) (e :: acc)
  in
  walk 0 0 []
