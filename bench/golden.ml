(* Prints the named experiments for the golden files in test/golden/:
   e20 and e24 in their print-only form, without the BENCH_engine.json
   write, and every other experiment as [main.exe] runs it.  The golden
   rules name only experiments that then write nothing.

     dune exec bench/golden.exe -- e20 *)

open Experiments

let () =
  Array.iteri
    (fun i pick ->
      if i > 0 then
        match List.assoc_opt pick print_only with
        | Some f -> f ()
        | None -> (
          match List.assoc_opt pick all_experiments with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %S\n" pick;
            exit 3))
    Sys.argv
