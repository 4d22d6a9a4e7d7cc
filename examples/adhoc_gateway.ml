(* Ad hoc network gateway: worst-case latency monitoring under failures.

   The gateway (root) of a wireless ad hoc network tracks per-node queue
   latencies.  It wants the worst latency (MAX — a CAAF) and the 90th
   percentile (SELECTION via binary search over fault-tolerant COUNT,
   §2's reduction) while a moving failure burst kills a relay cluster
   mid-collection.

     dune exec examples/adhoc_gateway.exe
*)

open Ftagg

let () =
  let n = 60 in
  (* A caterpillar: a relay backbone with leaf stations — a shape where
     one dead relay blocks a whole branch, the paper's hard case. *)
  let net = Network.create Gen.Caterpillar ~n ~seed:3 () in
  Printf.printf "ad hoc network: %d stations, diameter %d\n" n (Network.diameter net);

  (* Latencies in ms: mostly small with a heavy tail. *)
  let rng = Prng.create 99 in
  let latencies =
    Array.init n (fun _ ->
        let base = 5 + Prng.int rng 40 in
        if Prng.int rng 10 = 0 then base + 200 + Prng.int rng 300 else base)
  in

  (* A relay cluster near the backbone's end fails while aggregation
     runs, severing a handful of stations. *)
  let b = 64 and f = 10 in
  let burst_round = 3 * Network.diameter net in
  let failures = Failure.kill_nodes ~n ~nodes:[ 26; 27; 28 ] ~round:burst_round in
  Printf.printf "burst: relays 26, 27, 28 fail early in the window\n";

  (* Worst latency (MAX). *)
  let max_r = Network.aggregate net ~caaf:Instances.max_ ~inputs:latencies ~failures ~b ~f in
  Printf.printf "max latency       : %d ms (verified: %b, %d bits/node cc)\n"
    (Network.value_exn max_r) max_r.Network.correct max_r.Network.cc;

  (* 75th percentile via SELECTION: k = ceil(0.75 n).  (The order must
     stay within the surviving population — the burst severs a few
     stations, so their tail latencies may legitimately drop out.) *)
  let k = (3 * n) / 4 in
  let sel = Network.select net ~inputs:latencies ~failures ~b ~f ~k in
  Printf.printf "p75 latency       : %d ms (%d COUNT probes, %d rounds total)\n"
    sel.Selection.value sel.Selection.probes sel.Selection.rounds;

  (* Reference percentiles over the two extreme admissible populations. *)
  (* The guarantee is interval-shaped: the answer lies between the k-th
     smallest over ALL stations and the k-th smallest over the SURVIVORS
     (k stays fixed, so against the smaller surviving population it is a
     higher percentile). *)
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let alive = Checker.survivors ~graph:(Network.graph net) ~failures ~round:burst_round in
  let surv_sorted =
    List.filteri (fun i _ -> alive.(i)) (Array.to_list latencies)
    |> List.sort compare |> Array.of_list
  in
  Printf.printf "reference         : k=%d over all stations = %d ms, over %d survivors = %d ms\n"
    k
    sorted.(k - 1)
    (Array.length surv_sorted)
    surv_sorted.(min (k - 1) (Array.length surv_sorted - 1));
  Printf.printf "                    true max = %d ms\n" sorted.(n - 1);

  (* The MIN latency, exercising a Decreasing CAAF end to end. *)
  let min_r = Network.aggregate net ~caaf:Instances.min_ ~inputs:latencies ~failures ~b ~f in
  Printf.printf "min latency       : %d ms (verified: %b)\n" (Network.value_exn min_r)
    min_r.Network.correct
