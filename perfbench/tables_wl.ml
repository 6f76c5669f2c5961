(* [tables]: the paper's Tables 1-3 and the proof-class hierarchy, as
   [tables.exe all] run closed-loop, one run at a time. *)

open Common

let sections =
  [ "t1"; "t2"; "t3"; "soundness"; "entangled"; "tree"; "ablation"; "variants"; "check" ]

(* The committed transcript every run must reproduce byte for byte. *)
let expected = lazy (Proc.read_file "tables_output.txt")

let run_tables ?(flags = []) cmd =
  let stdout = out "tables.out" in
  let u = Proc.run ~stdout ~stderr:(out "tables.err") (tables_exe ()) (flags @ [ cmd ]) in
  (u, Proc.read_file stdout)

(* Launch to ready: an unknown table name is rejected right after
   start-up, before any table work. *)
let probe_cmd = "perfbench-setup-probe"

let setup_probe () =
  let u, output = run_tables probe_cmd in
  if u.Proc.code = 1 && String.starts_with ~prefix:("unknown command " ^ probe_cmd) output
  then Some u.Proc.wall_s
  else None

let run_all r i ?flags what =
  let u, output = run_tables ?flags "all" in
  check r (u.Proc.code = 0 && output = Lazy.force expected)
    "tables all (%s, run %d) reproduces tables_output.txt" what i;
  u

let run r ~seconds =
  setup_median r "tables" setup_probe;
  closed_loop r ~seconds ~what:"runs" (fun i -> run_all r i "timed")

(* Per-layer: section times, the exact engines in process, the
   single-threaded baseline and the cost of switching Qdp_obs on. *)
let trace r =
  let outputs =
    List.map
      (fun s ->
        let u, output = Span.with_ ("tables.section." ^ s) (fun () -> run_tables s) in
        check r (u.Proc.code = 0) "tables %s exits 0" s;
        output)
      sections
  in
  check r
    (String.concat "" outputs = Lazy.force expected)
    "tables sections concatenate to tables_output.txt";
  let child = out "exact.out" in
  let u =
    Span.with_ "tables.exact_child" (fun () ->
        let u =
          Proc.run ~stdout:child ~stderr:(out "exact.err") (self_exe ()) [ "--child"; "exact" ]
        in
        Child.ingest_spans child;
        u)
  in
  check r (u.Proc.code = 0) "exact child exits 0";
  let table = Lazy.force expected in
  let macs = ref 0. and dim_max = ref 0 in
  List.iter
    (fun l ->
      match Child.words l with
      | [ "gram"; _; dim; rows ] ->
          let d = float_of_string dim in
          macs := !macs +. (float_of_string rows *. d *. (d +. 1.) /. 2.);
          dim_max := max !dim_max (int_of_string dim)
      | "row" :: _ ->
          let row = String.sub l 4 (String.length l - 4) in
          let found =
            List.mem row (String.split_on_char '\n' table)
          in
          check r found "in-process hierarchy row matches the table: %s" row
      | _ -> ())
    (Child.lines child);
  let all = Span.all () in
  List.iter
    (fun s ->
      let name = "tables.section." ^ s in
      metric r (name ^ "_s") "s" (Span.total all name))
    sections;
  let ent = Span.total all "exact.entangled" and gram = Span.total all "batch.attack_gram" in
  metric r "exact.entangled_s" "s" ent;
  metric r "batch.attack_gram_s" "s" gram;
  metric r "eig.top_s" "s" (ent -. gram) ~note:"(entangled span minus Gram span)";
  metric r "sep_sim.optimize_s" "s" (Span.total all "sep_sim.optimize");
  metric r "batch.gram_macs" "count" !macs;
  metric r "eig.dim_max" "count" (float_of_int !dim_max);
  let base = Span.with_ "tables.all.default" (fun () -> run_all r 0 "default jobs") in
  let one = Span.with_ "tables.all.jobs1" (fun () -> run_all r 0 ~flags:[ "--jobs"; "1" ] "jobs 1") in
  let traced =
    Span.with_ "tables.all.traced" (fun () ->
        run_all r 0 "Qdp_obs on"
          ~flags:[ "--metrics"; out "tables-metrics.json"; "--trace"; out "tables-trace.jsonl" ])
  in
  metric r "par.speedup.tables" "ratio" (one.Proc.wall_s /. base.Proc.wall_s)
    ~note:"(tables all: jobs 1 wall / default wall)";
  metric r "trace.overhead_share.tables" "share"
    ((traced.Proc.wall_s -. base.Proc.wall_s) /. base.Proc.wall_s)
    ~note:"(tables all wall, Qdp_obs on vs off)"
