(* Unit tests for the protocol substrate: Params, Message bit accounting,
   Flood dedup. *)

open Ftagg
open Helpers

let sample_params ?(n = 16) ?(t = 2) () =
  let graph = Gen.grid n in
  params_of ~t graph ~inputs:(default_inputs n)

let test_params_derivation () =
  let p = sample_params () in
  check_int "n" 16 p.Params.n;
  check_int "d of 4x4 grid" 6 p.Params.d;
  check_int "cd" 12 (Params.cd p);
  check_int "id bits" 4 (Params.id_bits p);
  check_true "level bits cover cd" (1 lsl Params.level_bits p > Params.cd p);
  check_int "max input" 16 p.Params.max_input

let test_params_validation () =
  let graph = Gen.path 4 in
  Alcotest.check_raises "wrong input length"
    (Invalid_argument "Params.make: wrong inputs length") (fun () ->
      ignore (Params.make ~graph ~inputs:[| 1; 2 |] ()));
  Alcotest.check_raises "negative input"
    (Invalid_argument "Params.make: negative input") (fun () ->
      ignore (Params.make ~graph ~inputs:[| 1; -1; 2; 3 |] ()));
  let disconnected = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Params.make: graph is disconnected") (fun () ->
      ignore (Params.make ~graph:disconnected ~inputs:(default_inputs 4) ()))

let test_budgets_match_paper () =
  let p = sample_params ~n:64 ~t:5 () in
  let logn = 6 in
  check_int "AGG budget (11t+14)(logN+5)" ((11 * 5 + 14) * (logn + 5)) (Params.agg_bit_budget p);
  check_int "VERI budget (5t+7)(3logN+10)"
    ((5 * 5 + 7) * (3 * logn + 10))
    (Params.veri_bit_budget p)

let test_message_bits_scale () =
  let p = sample_params ~n:64 ~t:3 () in
  let small = Message.bits p Message.Bf_init in
  let psum = Message.bits p (Message.Flooded_psum { source = 1; psum = 100 }) in
  let tc =
    Message.bits p (Message.Tree_construct { level = 2; ancestors = [ 1; 2; 3; 4; 5; 6 ] })
  in
  check_true "flooded psum wider than a bare tag" (psum > small);
  check_true "tree_construct carries 2t ids" (tc > psum);
  (* tree_construct with k ancestors costs k * id_bits more than with none *)
  let tc0 = Message.bits p (Message.Tree_construct { level = 2; ancestors = [] }) in
  check_int "ancestor cost" (6 * Params.id_bits p) (tc - tc0)

let test_message_bits_positive () =
  let p = sample_params () in
  List.iter
    (fun body -> check_true "positive width" (Message.bits p body > 0))
    [
      Message.Tree_construct { level = 0; ancestors = [] };
      Message.Ack { parent = 0 };
      Message.Aggregation { psum = 3; max_level = 2 };
      Message.Critical_failure 3;
      Message.Flooded_psum { source = 2; psum = 9 };
      Message.Dominated 1;
      Message.Compulsory 1;
      Message.Agg_abort;
      Message.Detect_failed_parent;
      Message.Failed_parent { node = 1; depth = 2 };
      Message.Detect_failed_child;
      Message.Failed_child 1;
      Message.Lfc_tail 1;
      Message.Not_lfc_tail 1;
      Message.Veri_overflow;
      Message.Bf_init;
      Message.Bf_value { source = 1; value = 5 };
    ]

let test_flood_dedup () =
  let f = Flood.create () in
  check_true "first receipt forwards" (Flood.receive f Message.Bf_init);
  check_true "duplicate dropped" (not (Flood.receive f Message.Bf_init));
  check_true "drain returns once" (Flood.drain f = [ Message.Bf_init ]);
  check_true "drain empties" (Flood.drain f = [])

let test_flood_originate_respects_seen () =
  let f = Flood.create () in
  check_true "originate new" (Flood.originate f (Message.Dominated 5));
  check_true "re-originate blocked" (not (Flood.originate f (Message.Dominated 5)));
  check_true "different content ok" (Flood.originate f (Message.Dominated 6));
  check_int "both queued once" 2 (List.length (Flood.drain f))

let test_flood_order_preserved () =
  let f = Flood.create () in
  ignore (Flood.receive f (Message.Critical_failure 1));
  ignore (Flood.receive f (Message.Critical_failure 2));
  ignore (Flood.receive f (Message.Critical_failure 3));
  check_true "fifo order"
    (Flood.drain f
    = [ Message.Critical_failure 1; Message.Critical_failure 2; Message.Critical_failure 3 ])

let test_flood_seen_query () =
  let f = Flood.create () in
  ignore (Flood.receive f (Message.Lfc_tail 4));
  check_true "seen" (Flood.seen f (Message.Lfc_tail 4));
  check_true "not seen" (not (Flood.seen f (Message.Lfc_tail 5)));
  check_int "fold_seen" 1 (Flood.fold_seen (fun _ acc -> acc + 1) f 0)

(* The seen-set against a reference model (a list of seen bodies and the
   queue of first receipts), over random receive/originate/drain runs of
   up to 64 distinct bodies with repeats, so most runs cross from the
   short list into the table. *)
let flood_body k =
  match k mod 4 with
  | 0 -> Message.Critical_failure k
  | 1 -> Message.Flooded_psum { source = k; psum = 2 * k }
  | 2 -> Message.Failed_parent { node = k; depth = k mod 5 }
  | _ -> Message.Bf_value { source = k; value = k }

let flood_matches_model =
  QCheck.Test.make ~name:"flood: seen-set matches a list model" ~count:200
    QCheck.(
      pair (int_range 1 64)
        (list_of_size (Gen.int_range 0 200) (pair (int_range 0 2) (int_range 0 63))))
    (fun (distinct, ops) ->
      let f = Flood.create () in
      let seen = ref [] and queue = ref [] and ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (op, k) ->
          let body = flood_body (k mod distinct) in
          (match op with
          | 2 ->
            expect (Flood.drain f = List.rev !queue);
            queue := [];
            expect (not (Flood.pending f))
          | _ ->
            let first = not (List.mem body !seen) in
            let got = if op = 0 then Flood.receive f body else Flood.originate f body in
            expect (got = first);
            if first then begin
              seen := body :: !seen;
              queue := body :: !queue
            end);
          expect (Flood.pending f = (!queue <> []));
          for j = 0 to distinct - 1 do
            let b = flood_body j in
            expect (Flood.seen f b = List.mem b !seen)
          done;
          expect
            (List.sort compare (Flood.fold_seen List.cons f []) = List.sort compare !seen))
        ops;
      expect (Flood.drain f = List.rev !queue);
      expect (Flood.drain f = []);
      !ok)

let test_flood_propagation_bound () =
  (* A flood started at the root must reach every node within diameter
     rounds — measured through the engine with a pure flooding protocol. *)
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let d = match Path.diameter g with Some d -> d | None -> assert false in
      let proto =
        {
          Engine.init = (fun u ~rng:_ -> (Flood.create (), ref (if u = 0 then 0 else -1)));
          step =
            (fun ~round ~me ~state:((f, got) as state) ~inbox ->
              List.iter
                (fun (_, body) ->
                  if Flood.receive f body && !got = -1 then got := round)
                inbox;
              if me = 0 && round = 1 then ignore (Flood.originate f Message.Bf_init);
              (state, Flood.drain f));
          msg_bits = (fun _ -> 1);
          root_done = (fun _ -> false);
          wake = Engine.every_round;
        }
      in
      let states, _ =
        Engine.run ~graph:g ~failures:(Failure.none ~n) ~max_rounds:(d + 1) ~seed:0 proto
      in
      Array.iteri
        (fun u (_, got) ->
          if u <> 0 then
            check_true
              (Printf.sprintf "%s: node %d reached within d+1 rounds" name u)
              (!got >= 2 && !got <= d + 1))
        states)
    (Lazy.force sweep_graphs)

let test_budget_monotone_in_t () =
  let g = Gen.grid 64 in
  let widths t =
    let p = params_of ~t g ~inputs:(default_inputs 64) in
    (Params.agg_bit_budget p, Params.veri_bit_budget p,
     Message.bits p (Message.Tree_construct { level = 1; ancestors = List.init (2 * t) Fun.id }))
  in
  let rec check prev = function
    | [] -> ()
    | t :: rest ->
      let (a, v, tc) = widths t in
      (match prev with
      | Some (a0, v0, tc0) ->
        check_true "agg budget grows" (a > a0);
        check_true "veri budget grows" (v > v0);
        check_true "tree_construct grows" (tc > tc0)
      | None -> ());
      check (Some (a, v, tc)) rest
  in
  check None [ 0; 1; 2; 5; 10; 20 ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("params: derivation", test_params_derivation);
      ("params: validation", test_params_validation);
      ("params: paper budgets", test_budgets_match_paper);
      ("message: widths scale", test_message_bits_scale);
      ("message: widths positive", test_message_bits_positive);
      ("flood: dedup", test_flood_dedup);
      ("flood: originate", test_flood_originate_respects_seen);
      ("flood: fifo", test_flood_order_preserved);
      ("flood: seen", test_flood_seen_query);
      ("flood: network propagation within diameter", test_flood_propagation_bound);
      ("params: budgets monotone in t", test_budget_monotone_in_t);
    ]
  @ [ QCheck_alcotest.to_alcotest flood_matches_model ]
