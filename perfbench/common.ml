(* Shared plumbing: where the programs and outputs live, and how a run
   reports its metrics. *)

let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let out file = Filename.concat out_dir file

(* The binaries dune builds next to this one. *)
let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" name)

let tables_exe () = bin "tables.exe"
let qdp_exe () = bin "qdp.exe"
let self_exe () = Sys.executable_name

(* Number of launches behind every [setup_s] median. *)
let setup_probes = 9

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- result accumulation --- *)

(* [m_json = false]: printed in the summary only, not in the result. *)
type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_note : string;
  m_json : bool;
}

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : metric list;  (* reversed *)
  mutable notes : string list;  (* reversed; printed before the result *)
}

let report () = { attempted = 0; failed = 0; metrics = []; notes = [] }

let add r ~json ?(note = "") name unit value =
  r.metrics <-
    { m_name = name; m_value = value; m_unit = unit; m_note = note; m_json = json }
    :: r.metrics

let metric = add ~json:true
let info = add ~json:false

let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt

(* [check r ok what] counts one operation; a failed one is logged. *)
let check r ok fmt =
  Printf.ksprintf
    (fun what ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        log "FAILED: %s" what
      end)
    fmt

let json_num v = Printf.sprintf "%.17g" v

(* Human-readable lines, then the one-line JSON result. *)
let print_result r =
  List.iter print_endline (List.rev r.notes);
  let ms = List.rev r.metrics in
  List.iter
    (fun m ->
      Printf.printf "%-34s %20.6f %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note)
    ms;
  Printf.printf "%-34s %20.6f %-6s (%d failed of %d attempted)\n" "fail_share"
    (if r.attempted = 0 then 1.
     else float_of_int r.failed /. float_of_int r.attempted)
    "share" r.failed r.attempted;
  let ms = List.filter (fun m -> m.m_json) ms in
  let bad = List.filter (fun m -> not (Float.is_finite m.m_value)) ms in
  List.iter (fun m -> log "metric %s is not a finite number" m.m_name) bad;
  let correct = r.failed = 0 && r.attempted > 0 && bad = [] in
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.m_name
             (json_num (if Float.is_finite m.m_value then m.m_value else 0.))
             m.m_unit)
         ms)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 r.attempted) r.failed body;
  correct

(* Median with its sample count, for the notes column. *)
let med_note xs = Printf.sprintf "(median of %d)" (List.length xs)

(* --- closed-loop timing --- *)

(* [closed_loop r ~seconds ~what f] runs [f i] (one child process,
   returning its usage) until [seconds] have passed and at least 3 runs
   are in, then reports the medians over the runs. *)
let closed_loop r ~seconds ~what f =
  let t0 = Unix.gettimeofday () in
  let runs = ref [] in
  while List.length !runs < 3 || Unix.gettimeofday () -. t0 < seconds do
    runs := f (List.length !runs) :: !runs
  done;
  let runs = !runs in
  let walls = List.map (fun u -> u.Proc.wall_s) runs in
  let n = med_note walls in
  metric r "wall_s" "s" (Stats.median walls) ~note:n;
  metric r "cpu_s" "s" (Stats.median (List.map (fun u -> u.Proc.cpu_s) runs)) ~note:n;
  metric r "peak_rss_mb" "MB" (Stats.median (List.map (fun u -> u.Proc.rss_mb) runs)) ~note:n;
  info r "p50_ms" "ms" (1000. *. Stats.median walls) ~note:n;
  info r "p99_ms" "ms" (1000. *. Stats.percentile 99. walls)
    ~note:(Printf.sprintf "(nearest rank of %d)" (List.length walls));
  info r "max_rps" "1/s"
    (float_of_int (List.length walls) /. Stats.sum walls)
    ~note:(Printf.sprintf "(closed loop, 1 client: %s per second)" what)

(* Median launch time over [setup_probes] launches of [probe ()],
   which returns one launch-to-ready time or [None] on failure. *)
let setup_median r what probe =
  let samples =
    List.filter_map
      (fun i ->
        let s = probe () in
        check r (s <> None) "%s setup probe %d" what i;
        s)
      (List.init setup_probes Fun.id)
  in
  metric r "setup_s" "s" (Stats.median samples) ~note:(med_note samples)
