(* Prints every experiment [experiments.ml] marks golden, in registry
   order: test/golden/experiments.expected.  It writes no
   BENCH_engine.json field, so the golden rule neither reads nor
   rewrites the committed baseline.

     dune exec bench/golden.exe *)

open Experiments

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "golden.exe takes no arguments";
    exit 3
  end;
  List.iter (fun e -> if e.golden then ignore (exec e)) registry
