(* [sweep]: the Monte-Carlo estimation use — the fault sweep over
   every fault-aware protocol and kind, cross-validation of every
   network entry and the LMN22 turn experiment, one pass per child
   process. *)

open Common

(* perfbench/expected_sweep.txt: "SEED SWEEP XVAL TURNS" per library
   seed, regenerated with [main.exe --child record]. *)
let recorded =
  lazy
    (List.filter_map
       (fun l ->
         match Child.words l with
         | [ s; sw; x; t ] -> Some (int_of_string s, (sw, x, t))
         | _ -> None)
       (Child.lines "perfbench/expected_sweep.txt"))

let pass r ~seed ~i ?(flags = []) what =
  let stdout = out "sweep.out" in
  let u =
    Proc.run ~stdout ~stderr:(out "sweep.err") (self_exe ())
      ([ "--child"; "sweep"; "--seed"; string_of_int seed ] @ flags)
  in
  let got what = Child.field stdout "digest" what in
  let want = List.assoc_opt (Child.input_seed seed) (Lazy.force recorded) in
  let ok =
    u.Proc.code = 0
    &&
    match want with
    | Some (sw, x, t) -> got "sweep" = Some sw && got "xval" = Some x && got "turns" = Some t
    | None -> false
  in
  check r ok "sweep pass %d (%s) matches the recorded digests for seed %d" i what
    (Child.input_seed seed);
  (u, stdout)

let setup_probe () =
  let stdout = out "setup.out" in
  let u = Proc.run ~stdout ~stderr:(out "setup.err") (self_exe ()) [ "--child"; "setup" ] in
  if u.Proc.code = 0 && Proc.read_file stdout = "ready\n" then Some u.Proc.wall_s else None

let run r ~seed ~seconds =
  setup_median r "sweep" setup_probe;
  closed_loop r ~seconds ~what:"passes" (fun i -> fst (pass r ~seed ~i "timed"))

let trace r ~seed =
  let traced, stdout =
    Span.with_ "sweep.pass.traced" (fun () ->
        let u, stdout = pass r ~seed ~i:0 ~flags:[ "--obs" ] "Qdp_obs on" in
        Child.ingest_spans stdout;
        (u, stdout))
  in
  let counts =
    List.map
      (fun name ->
        (name, Option.fold ~none:nan ~some:float_of_string (Child.field stdout "count" name)))
      Child.traced_counts
  in
  let base = Span.with_ "sweep.pass.default" (fun () -> fst (pass r ~seed ~i:1 "default jobs")) in
  let one =
    Span.with_ "sweep.pass.jobs1" (fun () ->
        fst (pass r ~seed ~i:2 ~flags:[ "--jobs"; "1" ] "jobs 1"))
  in
  let all = Span.all () in
  List.iter
    (fun (m, span) -> metric r m "s" (Span.total all span))
    [ ("faults.sweep_s", "faults.sweep"); ("dqma.xval_s", "dqma.xval"); ("turns.run_s", "turns.run") ];
  List.iter (fun (name, v) -> metric r name "count" v) counts;
  metric r "par.speedup.sweep" "ratio" (one.Proc.wall_s /. base.Proc.wall_s)
    ~note:"(sweep pass: jobs 1 wall / default wall)";
  metric r "trace.overhead_share.sweep" "share"
    ((traced.Proc.wall_s -. base.Proc.wall_s) /. base.Proc.wall_s)
    ~note:"(sweep pass wall, Qdp_obs on vs off)"
