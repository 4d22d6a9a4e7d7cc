(* Tests for lib/fleet: consistent-hash routing and the fan-out client.

   The load-bearing properties:

   - the ring is deterministic from (endpoints, vnodes, seed) — every
     fleet member computes the same placement with no coordination —
     and spreads keys over all members;
   - the router's preference list starts at the owner, walks distinct
     ring successors, and pushes down endpoints to the back without
     ever dropping them;
   - the fan-out client completes a workload across several live
     servers, reports per-endpoint attribution, and when an endpoint is
     dead its jobs fail over to ring successors — with zero failed
     requests as long as one member survives;
   - a fleet sharing one store directory reuses each other's
     executions: a workload replayed against a fresh server on the same
     store comes back entirely from cache. *)

open Ftagg
open Helpers
module Listener = Transport.Listener
module Server = Service.Server
module Reconfig = Service.Reconfig

let settings () =
  {
    Reconfig.default with
    Reconfig.queue_capacity = 64;
    cache_capacity = 64;
    tick_batch = 8;
    checkpoint_every = 0;
  }

let sock_counter = ref 0

let fresh_sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ftagg-fleet-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let dir_counter = ref 0

let fresh_store_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ftagg-fleet-store-%d-%d" (Unix.getpid ()) !dir_counter)

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* a small, fast job as submit-payload JSON, distinct per seed *)
let job ?(n = 16) seed =
  Result.get_ok
    (Bench_io.of_string
       (Printf.sprintf
          {|{"family":"grid","n":%d,"seed":%d,"tenant":"fleet","failures":"none"}|} n seed))

let retry = Transport.Client.retry ~attempts:2 ~backoff_ms:1 ~max_backoff_ms:2 ()

(* --- the ring --- *)

let test_ring_deterministic () =
  let eps = [ "unix:/a"; "unix:/b"; "unix:/c" ] in
  let r1 = Ring.create ~vnodes:64 ~seed:5 eps in
  let r2 = Ring.create ~vnodes:64 ~seed:5 eps in
  let keys = List.init 200 (fun i -> Printf.sprintf "%016x" (i * 7919)) in
  List.iter
    (fun k -> check_true "same triple, same owner" (Ring.owner r1 k = Ring.owner r2 k))
    keys;
  let r3 = Ring.create ~vnodes:64 ~seed:6 eps in
  check_true "a different seed moves at least one key"
    (List.exists (fun k -> Ring.owner r1 k <> Ring.owner r3 k) keys);
  check_true "members kept in first-occurrence order, deduped"
    (Ring.members (Ring.create [ "b"; "a"; "b" ]) = [ "b"; "a" ])

(* Placement pinned byte-exact: every fleet member, on every build, must
   agree on which endpoint owns a key. *)
let test_ring_placement_pinned () =
  let r = Ring.create ~vnodes:16 ~seed:3 [ "e1"; "e2"; "e3" ] in
  let keys = List.init 12 (fun i -> Printf.sprintf "%016x" (i * 7919)) in
  check_true "owners of twelve keys"
    (List.map (Ring.owner r) keys
    = [ "e3"; "e3"; "e2"; "e3"; "e1"; "e3"; "e1"; "e1"; "e3"; "e3"; "e2"; "e3" ])

let test_ring_distribution () =
  let eps = [ "e1"; "e2"; "e3"; "e4" ] in
  let r = Ring.create eps in
  let counts = Hashtbl.create 4 in
  for i = 0 to 999 do
    let owner = Ring.owner r (Printf.sprintf "%016x" (i * 104729)) in
    Hashtbl.replace counts owner (1 + Option.value (Hashtbl.find_opt counts owner) ~default:0)
  done;
  List.iter
    (fun e ->
      let n = Option.value (Hashtbl.find_opt counts e) ~default:0 in
      check_true (Printf.sprintf "%s owns a nontrivial share (%d)" e n) (n > 50))
    eps

let test_ring_successors () =
  let eps = [ "e1"; "e2"; "e3" ] in
  let r = Ring.create eps in
  let key = "deadbeefcafef00d" in
  let succ = Ring.successors r key 3 in
  check_int "three distinct endpoints" 3 (List.length (List.sort_uniq compare succ));
  check_true "starts at the owner" (List.hd succ = Ring.owner r key);
  check_true "asking for more than exist caps at the fleet"
    (List.length (Ring.successors r key 10) = 3);
  Alcotest.check_raises "empty ring rejected" (Invalid_argument "Ring.create: no endpoints")
    (fun () -> ignore (Ring.create []))

(* --- the router --- *)

let test_router_failover_order () =
  let r = Ring.create [ "e1"; "e2"; "e3" ] in
  let router = Router.create r in
  let key = "0123456789abcdef" in
  let pref = Router.route router key in
  check_int "full preference list" 3 (List.length pref);
  check_true "route_up is the head" (Router.route_up router key = Some (List.hd pref));
  Router.mark_down router (List.hd pref);
  let pref2 = Router.route router key in
  check_true "down endpoint pushed to the back, not dropped"
    (List.length pref2 = 3 && List.nth pref2 2 = List.hd pref);
  check_true "route_up skips it" (Router.route_up router key = Some (List.hd pref2));
  check_int "one failover counted" 1 (Router.failovers router);
  Router.mark_down router (List.hd pref);
  check_int "re-marking the same endpoint counts once" 1 (Router.failovers router);
  List.iter (Router.mark_down router) (Router.endpoints router);
  check_true "all down: no route" (Router.route_up router key = None);
  Router.mark_up router "e2";
  check_true "mark_up restores routing" (Router.route_up router key = Some "e2")

(* --- the fan-out client, end to end --- *)

let with_fleet ?(count = 2) ?store_dir f =
  Registry.set_enabled true;
  let members =
    List.init count (fun i ->
        let path = fresh_sock_path () in
        let server =
          Server.create
            {
              Server.settings = settings ();
              checkpoint_path = None;
              store_dir;
              name = Printf.sprintf "fleet-%d" i;
            }
        in
        let t =
          Result.get_ok
            (Listener.create (Listener.config (Listener.Unix_sock path)) server)
        in
        (path, t))
  in
  let pump () = List.iter (fun (_, t) -> ignore (Listener.poll t)) members in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (path, t) ->
          Listener.drain t;
          if Sys.file_exists path then Sys.remove path)
        members)
    (fun () -> f (List.map (fun (path, _) -> "unix:" ^ path) members) pump)

let test_fleet_completes_across_members () =
  with_fleet ~count:2 @@ fun endpoints pump ->
  let jobs = List.init 8 (fun i -> job (100 + i)) in
  let report = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
  check_int "every job answered" 8 report.Fleet.r_completed;
  check_int "none failed" 0 report.Fleet.r_failed;
  check_int "none errored" 0 report.Fleet.r_errors;
  check_int "one routing round" 1 report.Fleet.r_rounds;
  check_int "no failovers" 0 report.Fleet.r_failovers;
  check_int "attribution adds up" 8
    (List.fold_left (fun a (_, n) -> a + n) 0 report.Fleet.r_per_endpoint);
  check_int "completions in input order, one per job" 8 (List.length report.Fleet.r_completions);
  List.iteri
    (fun i (idx, item) ->
      check_int "index order" i idx;
      check_true "each completion has an outcome" (Bench_io.member "outcome" item <> None))
    report.Fleet.r_completions;
  (* the same workload again: every member answers from its cache *)
  let warm = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
  check_int "warm run all cached" 8 warm.Fleet.r_cached;
  check_true "warm cache hits visible in the merged report" (warm.Fleet.r_cache_hits >= 8)

let test_fleet_fails_over_dead_endpoint () =
  with_fleet ~count:2 @@ fun endpoints pump ->
  (* a third member that was never started: jobs routed to it must fail
     over to ring successors, not fail *)
  let dead = "unix:" ^ fresh_sock_path () in
  let endpoints = endpoints @ [ dead ] in
  let jobs = List.init 12 (fun i -> job (500 + i)) in
  let report = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
  check_int "every job answered despite the dead member" 12 report.Fleet.r_completed;
  check_int "zero failed" 0 report.Fleet.r_failed;
  check_true "the dead endpoint answered nothing"
    (not (List.mem_assoc dead report.Fleet.r_per_endpoint));
  (* with 64 vnodes over 3 members, 12 keys hit the dead one with
     overwhelming probability — so failover must have happened *)
  check_true "failover rounds ran" (report.Fleet.r_rounds > 1);
  check_true "failovers counted" (report.Fleet.r_failovers > 0)

let test_fleet_bad_job_is_refused_not_failed_over () =
  with_fleet ~count:1 @@ fun endpoints pump ->
  let bad = Result.get_ok (Bench_io.of_string {|{"family":"nope","n":16,"seed":1}|}) in
  let jobs = [ job 900; bad; job 901 ] in
  let report = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
  check_int "good jobs complete" 2 report.Fleet.r_completed;
  check_int "bad job is an error, not a retry loop" 1 report.Fleet.r_errors;
  check_int "one round suffices" 1 report.Fleet.r_rounds

let test_fleet_shared_store_warms_fresh_member () =
  let store_dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> rm_rf store_dir) @@ fun () ->
  let jobs = List.init 6 (fun i -> job (700 + i)) in
  (* first fleet executes everything and appends to the shared store *)
  (with_fleet ~count:2 ~store_dir @@ fun endpoints pump ->
   let report = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
   check_int "cold run completes" 6 report.Fleet.r_completed;
   check_int "cold run executed, not cached" 0 report.Fleet.r_cached);
  (* a brand-new member on the same store: empty L1, warm L2 *)
  with_fleet ~count:1 ~store_dir @@ fun endpoints pump ->
  let report = Result.get_ok (Fleet.run ~retry ~pump ~endpoints ~jobs ()) in
  check_int "fresh member completes the replay" 6 report.Fleet.r_completed;
  check_int "entirely from the shared store" 6 report.Fleet.r_cached

let test_probe () =
  with_fleet ~count:1 @@ fun endpoints _pump ->
  let live = Result.get_ok (Listener.address_of_string (List.hd endpoints)) in
  check_true "probe finds the live listener" (Transport.Client.probe live);
  check_true "probe fails on a dead address"
    (not (Transport.Client.probe (Listener.Unix_sock (fresh_sock_path ()))))

let suite =
  [
    Alcotest.test_case "ring: deterministic placement" `Quick test_ring_deterministic;
    Alcotest.test_case "ring: placement pinned byte-exact" `Quick test_ring_placement_pinned;
    Alcotest.test_case "ring: keys spread over all members" `Quick test_ring_distribution;
    Alcotest.test_case "ring: distinct successors from the owner" `Quick test_ring_successors;
    Alcotest.test_case "router: failover preference order" `Quick test_router_failover_order;
    Alcotest.test_case "fleet: workload completes across members" `Quick
      test_fleet_completes_across_members;
    Alcotest.test_case "fleet: dead endpoint fails over, zero failed" `Quick
      test_fleet_fails_over_dead_endpoint;
    Alcotest.test_case "fleet: bad job refused up front" `Quick
      test_fleet_bad_job_is_refused_not_failed_over;
    Alcotest.test_case "fleet: shared store warms a fresh member" `Quick
      test_fleet_shared_store_warms_fresh_member;
    Alcotest.test_case "client: probe liveness check" `Quick test_probe;
  ]
