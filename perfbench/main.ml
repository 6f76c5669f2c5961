(* The repo benchmark.

     main.exe --workload tables|serve|sweep --seed N --seconds S --trace 0|1

   With [--trace 0] it runs one workload for about S seconds and
   prints every end-to-end metric; with [--trace 1] it runs the traced
   per-layer suite of all three workloads once and prints every
   per-layer metric.  Either way the last stdout line is one JSON
   object [{"correct", "attempted", "failed", "metrics"}], and the exit
   code is non-zero when any output was wrong.  [--child MODE] is the
   benchmark's own worker process (see child.ml). *)

let usage () =
  prerr_endline
    "usage: main.exe --workload tables|serve|sweep --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with "--child" :: rest -> Child.main rest | _ -> ());
  let rec get name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> get name rest
    | [] -> usage ()
  in
  let int name = match int_of_string_opt (get name args) with Some i -> i | None -> usage () in
  let workload = get "--workload" args in
  let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
  let traced = match int "--trace" with 0 -> false | 1 -> true | _ -> usage () in
  if not (List.mem workload [ "tables"; "serve"; "sweep" ]) then usage ();
  if seconds < 1. then usage ();
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then begin
        Common.log "perfbench: missing %s (run from the repository root)" f;
        exit 1
      end)
    [ Common.tables_exe (); Common.qdp_exe (); "tables_output.txt"; "perfbench/expected_sweep.txt" ];
  Common.ensure_out_dir ();
  Qdp_core.Protocols.init ();
  let r = Common.report () in
  let correct =
    try
      if traced then begin
        Tables_wl.trace r;
        Sweep_wl.trace r ~seed;
        Serve_wl.trace r ~seed ~seconds;
        List.iter
          (fun (name, t) -> Common.note r "self time %-32s %10.4f s" name t)
          (Span.self_times (Span.all ()));
        Span.write_jsonl (Common.out (Printf.sprintf "trace-%s-%d.jsonl" workload seed))
      end
      else begin
        match workload with
        | "tables" -> Tables_wl.run r ~seconds
        | "sweep" -> Sweep_wl.run r ~seed ~seconds
        | _ -> Serve_wl.run r ~seed ~seconds
      end;
      Common.print_result r
    with e ->
      Proc.kill_all ();
      Common.log "perfbench: %s" (Printexc.to_string e);
      exit 1
  in
  exit (if correct then 0 else 1)
