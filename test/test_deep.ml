(* Deep structural tests: the flooding-schedule invariant behind §4.2's
   "in that round" check, run determinism, the packed-pair CAAF, message
   rendering, and a moderate-scale stress run. *)

open Ftagg
open Helpers

(* --- The first-receipt invariant --------------------------------------

   The soundness of AGG's speculative-flooding trigger rests on: a
   flooded partial sum first reaches a level-l node no earlier than phase
   round l+1.  We check it empirically: record every broadcast with a
   trace, reconstruct per-node receipt rounds, and compare with the tree
   levels AGG assigned. *)

let test_spec_flood_receipt_invariant () =
  List.iter
    (fun seed ->
      let n = 36 in
      let g = Gen.grid n in
      let params = params_of ~t:3 g ~inputs:(default_inputs n) in
      let cd = Params.cd params in
      let failures =
        Failure.random g ~rng:(Prng.create (seed * 5)) ~budget:4 ~max_round:150
      in
      let trace = Trace.create () in
      let proto =
        {
          Engine.init = (fun u ~rng:_ -> Agg.create params ~me:u);
          step =
            (fun ~round ~me:_ ~state ~inbox ->
              let inbox =
                List.filter_map
                  (fun (s, m) ->
                    if m.Message.exec = 0 then Some (s, m.Message.body) else None)
                  inbox
              in
              let out = Agg.step state ~rr:round ~inbox in
              (state, List.map (fun body -> Message.{ exec = 0; body }) out));
          msg_bits = Message.msg_bits params;
          root_done = (fun _ -> false);
          wake = Engine.every_round;
        }
      in
      let states, _ =
        Engine.run ~observer:(Trace.observer trace) ~graph:g ~failures
          ~max_rounds:(Agg.duration params) ~seed proto
      in
      (* first receipt of any Flooded_psum per node = 1 + the earliest
         round in which some graph neighbour broadcast one *)
      let first_receipt = Array.make n max_int in
      List.iter
        (fun e ->
          let has_psum =
            List.exists
              (fun m ->
                match m.Message.body with Message.Flooded_psum _ -> true | _ -> false)
              e.Trace.payloads
          in
          if has_psum then
            List.iter
              (fun v ->
                if e.Trace.round + 1 < first_receipt.(v) then
                  first_receipt.(v) <- e.Trace.round + 1)
              (Graph.neighbors g e.Trace.node))
        (Trace.events trace);
      let spec_base = (4 * cd) + 2 in
      Array.iteri
        (fun u fr ->
          if u <> Graph.root && fr <> max_int && Agg.activated states.(u) then begin
            let l = Agg.level states.(u) in
            check_true
              (Printf.sprintf "seed %d node %d (level %d): first psum at phase round %d"
                 seed u l (fr - spec_base))
              (fr - spec_base >= l + 1)
          end)
        first_receipt)
    [ 1; 2; 3 ]

(* --- Determinism ----------------------------------------------------- *)

let test_run_determinism () =
  let n = 36 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let failures = Failure.random g ~rng:(Prng.create 4) ~budget:6 ~max_round:600 in
  let run () = Run.tradeoff ~graph:g ~failures ~params ~b:63 ~f:6 ~seed:11 () in
  let a = run () and b = run () in
  check_int "same value" (Run.value_exn a.Run.result) (Run.value_exn b.Run.result);
  check_int "same cc" (Metrics.cc a.Run.common.Run.metrics) (Metrics.cc b.Run.common.Run.metrics);
  check_int "same rounds" a.Run.common.Run.rounds b.Run.common.Run.rounds;
  (* different protocol seed may legitimately pick different intervals
     but must stay correct *)
  let c = Run.tradeoff ~graph:g ~failures ~params ~b:63 ~f:6 ~seed:12 () in
  check_true "other seed still correct" c.Run.common.Run.correct

let test_pair_determinism_across_metrics () =
  let n = 30 in
  let g = Gen.ring n in
  let params = params_of ~t:4 g ~inputs:(default_inputs n) in
  let failures = Failure.chain ~n ~first:1 ~len:4 ~round:70 in
  let a = Run.pair ~graph:g ~failures ~params ~seed:7 () in
  let b = Run.pair ~graph:g ~failures ~params ~seed:7 () in
  List.iter
    (fun u ->
      check_int
        (Printf.sprintf "node %d bits identical" u)
        (Metrics.bits_sent a.Run.common.Run.metrics u)
        (Metrics.bits_sent b.Run.common.Run.metrics u))
    (List.init n Fun.id)

(* --- Packed-pair CAAF: AVERAGE in one execution ----------------------- *)

let test_packed2_roundtrip () =
  let v = Instances.pack2 ~bits:10 123 45 in
  let a, b = Instances.unpack2 ~bits:10 v in
  check_int "a" 123 a;
  check_int "b" 45 b

let test_packed2_rejects () =
  Alcotest.check_raises "component too wide"
    (Invalid_argument "Instances.pack2: component out of range") (fun () ->
      ignore (Instances.pack2 ~bits:4 16 0));
  Alcotest.check_raises "min identity rejected"
    (Invalid_argument "Instances.pack2: component out of range") (fun () ->
      ignore (Instances.packed2 ~bits:10 Instances.sum Instances.min_))

let test_packed2_average_single_run () =
  (* one Algorithm 1 execution computing (SUM, COUNT) at once *)
  let n = 25 in
  let g = Gen.grid n in
  let bits = 12 in
  let caaf = Instances.packed2 ~bits Instances.sum Instances.count in
  let raw = Array.init n (fun i -> (i mod 9) + 1) in
  let inputs = Array.map (fun x -> Instances.pack2 ~bits x 1) raw in
  let params = Params.make ~c:2 ~caaf ~graph:g ~inputs () in
  let o = Run.tradeoff ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:2 ~seed:1 () in
  let sum, count = Instances.unpack2 ~bits (Run.value_exn o.Run.result) in
  check_int "packed sum" (total raw) sum;
  check_int "packed count" n count

let test_packed2_laws () =
  let caaf = Instances.packed2 ~bits:8 Instances.max_ Instances.sum in
  let x = Instances.pack2 ~bits:8 3 10
  and y = Instances.pack2 ~bits:8 7 20
  and z = Instances.pack2 ~bits:8 5 30 in
  check_int "commutes" (caaf.Caaf.combine x y) (caaf.Caaf.combine y x);
  check_int "associates"
    (caaf.Caaf.combine (caaf.Caaf.combine x y) z)
    (caaf.Caaf.combine x (caaf.Caaf.combine y z));
  let m, s = Instances.unpack2 ~bits:8 (Caaf.aggregate caaf [ x; y; z ]) in
  check_int "max component" 7 m;
  check_int "sum component" 60 s

(* --- Message rendering ------------------------------------------------ *)

let test_message_pp () =
  let cases =
    [
      (Message.Flooded_psum { source = 3; psum = 42 }, "psum(3:42)");
      (Message.Agg_abort, "abort");
      (Message.Failed_parent { node = 7; depth = 2 }, "fp(7,x2)");
      (Message.Ack { parent = 0 }, "ack(0)");
    ]
  in
  List.iter
    (fun (body, want) ->
      check_true want (Format.asprintf "%a" Message.pp_body body = want))
    cases;
  check_true "tagged"
    (Format.asprintf "%a" Message.pp Message.{ exec = 2; body = Message.Bf_init } = "2:bf")

(* --- Moderate-scale stress run ---------------------------------------- *)

let test_stress_larger_network () =
  let n = 225 in
  let g = Gen.grid n in
  let inputs = Array.init n (fun i -> (i mod 13) + 1) in
  let params = params_of g ~inputs in
  let failures =
    Failure.random g ~rng:(Prng.create 21) ~budget:20
      ~max_round:(63 * params.Params.d)
  in
  let o = Run.tradeoff ~graph:g ~failures ~params ~b:63 ~f:20 ~seed:9 () in
  check_true "large grid correct" o.Run.common.Run.correct;
  check_true "large grid within budget" (o.Run.common.Run.flooding_rounds <= 63);
  (* brute force on the same instance for cross-validation of the
     correctness interval *)
  let ob = Run.brute_force ~graph:g ~failures ~params ~seed:9 () in
  check_true "brute correct too" ob.Run.common.Run.correct;
  check_true "tradeoff CC beats brute force"
    (Metrics.cc o.Run.common.Run.metrics < Metrics.cc ob.Run.common.Run.metrics)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("invariant: psum first receipt >= level+1", test_spec_flood_receipt_invariant);
      ("determinism: tradeoff runs", test_run_determinism);
      ("determinism: per-node bits", test_pair_determinism_across_metrics);
      ("packed2: roundtrip", test_packed2_roundtrip);
      ("packed2: rejects", test_packed2_rejects);
      ("packed2: average in one run", test_packed2_average_single_run);
      ("packed2: laws", test_packed2_laws);
      ("message: pp", test_message_pp);
      ("stress: 225-node grid", test_stress_larger_network);
    ]
