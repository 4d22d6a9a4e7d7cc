(* The reproduction harness: runs the experiments of [experiments.ml] by
   id (any case), checking every name before it runs any, and merges the
   BENCH_engine.json fields they return.  An unknown name prints one line
   and exits 3.

     dune exec bench/main.exe            # run every registered experiment
     dune exec bench/main.exe -- ID ...  # run selected experiments
     dune exec bench/main.exe -- guard   # re-check the committed baseline *)

open Experiments

let commands =
  List.map
    (fun e -> (e.id, fun () -> match exec e with [] -> () | fields -> write_fields fields))
    registry
  @ [ ("guard", guard) ]

let () =
  let picks =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map (fun e -> e.id) registry
  in
  let todo =
    List.map
      (fun pick ->
        match List.assoc_opt (String.lowercase_ascii pick) commands with
        | Some f -> f
        | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" pick
            (String.concat ", " (List.map fst commands));
          exit 3)
      picks
  in
  List.iter (fun f -> f ()) todo
