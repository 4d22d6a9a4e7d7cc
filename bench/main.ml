(* The reproduction harness: runs the experiments of [experiments.ml] by
   name.

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- e1 e8   # run selected experiments *)

open Experiments

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst all_experiments
  in
  List.iter
    (fun pick ->
      let pick = String.lowercase_ascii pick in
      match List.assoc_opt pick (all_experiments @ on_request_only) with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S (known: %s)\n" pick
          (String.concat ", " (List.map fst (all_experiments @ on_request_only))))
    requested
