(* [serve]: the verification-service use — an open-loop Poisson
   request stream against a live [qdp serve] daemon. *)

open Common
module Registry = Qdp_core.Registry
module Request = Qdp_serve.Request
module Frame = Qdp_dist.Frame

(* Nominal arrival rate (requests/s), chosen so the daemon is about
   half busy: on a 2-vCPU host its misses take 40% of the phase's wall
   time in evaluation ([serve.busy_share] in the traced run). *)
let nominal_rps = 80.

(* The nominal phase lasts [nominal_share] of [--seconds]. *)
let nominal_share = 0.5

(* [max_rps] ladder: rungs at nominal x ladder_ratio^k, k in
   [ladder_range].  A probe runs one rung for [probe_s] seconds on a
   fresh daemon and passes when the p99 latency (a refused request
   counts as missing) is within [p99_limit_s] and the backlog left at
   the last due time drains within it too.  The search starts at
   [ladder_start] and runs at most [max_probes] probes. *)
let p99_limit_s = 1.0
let ladder_ratio = 1.08
let ladder_range = (-12, 16)
let ladder_start = 6
let probe_s = 3.
let max_probes = 4

(* at most nproc client connections *)
let conns = Domain.recommended_domain_count ()

let fault_ids () =
  List.filter_map
    (fun e ->
      let i = Registry.info e in
      if i.Registry.info_fault_tolerant then Some i.Registry.info_id else None)
    (Registry.all ())

let to_request (it : Sched.item) =
  let spec = { Registry.default_spec with Registry.seed = it.seed; n = it.n } in
  let fault =
    Option.map
      (fun (f : Sched.fault) ->
        { Request.f_kind = f.kind; f_strength = f.strength; f_turn = None; f_trials = f.trials })
      it.fault
  in
  Request.make ?fault ~spec it.id

(* --- the daemon --- *)

type daemon = { pid : int; started : float; sock : string }

let launches = ref 0

let start_daemon ?metrics () =
  incr launches;
  (* a private, relative socket path: short enough for sun_path *)
  let sock = out (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !launches) in
  let log = out "serve.log" in
  let args =
    [ "serve"; "--socket"; sock ]
    @ match metrics with Some f -> [ "--metrics"; f ] | None -> []
  in
  let started = Unix.gettimeofday () in
  let pid = Proc.spawn ~stdout:log ~stderr:log (qdp_exe ()) args in
  let rec poll () =
    match Qdp_serve.Client.connect sock with
    | c ->
        Qdp_serve.Client.close c;
        Unix.gettimeofday ()
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () -. started > 30. then failwith "qdp serve did not come up";
        Unix.sleepf 0.001;
        poll ()
  in
  let ready = poll () in
  ({ pid; started; sock }, ready -. started)

(* Graceful drain, then reap. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  Proc.reap ~started:d.started d.pid

let setup_probe () =
  let d, s = start_daemon () in
  let u = stop_daemon d in
  if u.Proc.code = 0 then Some s else None

(* --- one open-loop phase --- *)

(* A long-lived daemon has paid its lazy start-up (first evaluation of
   each protocol) long before a typical request arrives, so each phase
   first sends every protocol once, plain and faulted at the smallest
   size, closed-loop and untimed.  Instance seed 0 is never a Zipf
   rank, so these keys never reach the measured stream's cache
   entries. *)
let warmup_requests () =
  let n = Sched.sizes.(0) in
  Array.of_list
    (List.map (fun id -> { Sched.id; n; seed = 0; fault = None }) (Registry.ids ())
    @ List.map
        (fun id ->
          { Sched.id; n; seed = 0;
            fault = Some { Sched.kind = "drop"; strength = 0.1; trials = Sched.trial_counts.(0) } })
        (fault_ids ()))
  |> Array.map to_request

type outcome = Pending | Reply of string | Reject of string

let is_overload reason = String.starts_with ~prefix:"{\"error\":\"overload\"" reason

type phase = {
  due : float array;  (* absolute due times *)
  sent : float array;
  finished : float array;
  results : outcome array;
  usage : Proc.usage;  (* the daemon's, launch to drain *)
  warm : outcome array;  (* answers to [warmup_requests] *)
}

let latency p i =
  match p.results.(i) with Reply _ -> p.finished.(i) -. p.due.(i) | _ -> infinity

let latencies p = List.init (Array.length p.due) (latency p)

(* [run_phase ~warmup ~rate ~arrivals ~payloads ~count] sends requests
   [0..count-1] at [t0 + arrivals.(i) / rate] over [conns] pipelined
   connections, whatever is outstanding, and collects every answer. *)
let run_phase ?metrics ~warmup ~rate ~arrivals ~payloads count =
  let d, _ = start_daemon ?metrics () in
  let clients = Array.init conns (fun _ -> Qdp_serve.Client.connect d.sock) in
  let warm =
    Array.mapi
      (fun i rq ->
        match Qdp_serve.Client.rpc clients.(0) ~id:(i + 1) (Request.to_json rq) with
        | `Reply (_, s) -> Reply s
        | `Reject (_, s) -> Reject s
        | `Eof -> Pending)
      warmup
  in
  let fds = Array.map Qdp_serve.Client.fd clients in
  let readers = Array.map (fun _ -> Frame.reader ()) fds in
  let open_fds = ref (Array.to_list fds) in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let due = Array.init count (fun i -> t0 +. (arrivals.(i) /. rate)) in
  let sent = Array.make count nan and finished = Array.make count nan in
  let results = Array.make count Pending in
  let next = ref 0 and answered = ref 0 in
  let buf = Bytes.create 65536 in
  let answer id outcome =
    let i = id - 1 in
    if i >= 0 && i < count && results.(i) = Pending then begin
      finished.(i) <- Unix.gettimeofday ();
      results.(i) <- outcome;
      incr answered
    end
  in
  let give_up = due.(count - 1) +. 60. in
  while !answered < count && !open_fds <> [] && Unix.gettimeofday () < give_up do
    let now = Unix.gettimeofday () in
    while !next < count && due.(!next) <= now do
      let i = !next in
      (try Frame.write fds.(i mod conns) (Frame.Request { id = i + 1; payload = payloads.(i) })
       with Unix.Unix_error _ -> ());
      sent.(i) <- Unix.gettimeofday ();
      incr next
    done;
    let timeout =
      if !next < count then Float.max 0. (due.(!next) -. Unix.gettimeofday ()) else 0.05
    in
    match Unix.select !open_fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            let k = ref 0 in
            Array.iteri (fun j f -> if f == fd then k := j) fds;
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 | (exception Unix.Unix_error _) ->
                open_fds := List.filter (fun f -> f != fd) !open_fds
            | n ->
                Frame.feed readers.(!k) buf n;
                let rec drain () =
                  match Frame.next readers.(!k) with
                  | `Msg (Frame.Reply { id; payload }) ->
                      answer id (Reply payload);
                      drain ()
                  | `Msg (Frame.Reject { id; reason }) ->
                      answer id (Reject reason);
                      drain ()
                  | `Msg _ | `Corrupt -> drain ()
                  | `More -> ()
                in
                drain ())
          readable
  done;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
  let usage = stop_daemon d in
  { due; sent; finished; results; usage; warm }

(* Completion time: first due to last answer. *)
let phase_wall p =
  Array.fold_left
    (fun acc t -> if Float.is_nan t then acc else Float.max acc t)
    neg_infinity p.finished
  -. p.due.(0)

(* Backlog left at the last due time drained within [p99_limit_s]. *)
let passes p =
  let n = Array.length p.due in
  Stats.percentile 99. (latencies p) <= p99_limit_s
  && phase_wall p -. (p.due.(n - 1) -. p.due.(0)) <= p99_limit_s

(* --- correctness: every answer equals Eval.run in process --- *)

type expected = { response : string; eval_s : float; faulted : bool }

(* Evaluate each distinct key among [requests] once, in process. *)
let evaluate ?(trace = false) requests =
  let table = Hashtbl.create 1024 in
  Array.iteri
    (fun i rq ->
      let key = Request.key rq in
      if not (Hashtbl.mem table key) then begin
        let run () = Qdp_serve.Eval.run rq in
        let t0 = Unix.gettimeofday () in
        let res = if trace then Span.with_ ~rid:(i + 1) "eval.run" run else run () in
        let eval_s = Unix.gettimeofday () -. t0 in
        let response = match res with Ok s -> s | Error e -> "error: " ^ e in
        Hashtbl.replace table key
          { response; eval_s; faulted = rq.Request.rq_fault <> None }
      end)
    requests;
  table

(* Count each answer in [results] (to [requests]) as one operation,
   failed unless it is a reply equal to the in-process evaluation.
   With [~refusals_ok] (ladder probes, whose refusals under overload
   are what they measure) only replies are counted. *)
let verify ?(refusals_ok = false) r table requests results what =
  let bad = ref 0 in
  Array.iteri
    (fun i res ->
      match res with
      | Reply s ->
          r.attempted <- r.attempted + 1;
          if (Hashtbl.find table (Request.key requests.(i))).response <> s then incr bad
      | Reject _ | Pending ->
          if not refusals_ok then begin
            r.attempted <- r.attempted + 1;
            incr bad
          end)
    results;
  r.failed <- r.failed + !bad;
  if !bad > 0 then log "FAILED: %d %s answers are wrong or missing" !bad what

let verify_phase ?refusals_ok r table ~warmup ~requests what p =
  verify r table warmup p.warm (what ^ " warm-up");
  verify ?refusals_ok r table requests p.results what

let inputs ~seed count =
  let items =
    Sched.mix ~seed ~ids:(Registry.ids ()) ~fault_ids:(fault_ids ()) ~count
  in
  let requests = Array.map to_request items in
  ( items,
    requests,
    Array.map Request.to_json requests,
    Sched.arrivals ~seed ~count,
    warmup_requests () )

let nominal_count seconds =
  max 200 (int_of_float (nominal_rps *. nominal_share *. seconds))

(* Highest ladder rate that passes, by a bracketing search. *)
let max_rps r ~count ~warmup ~arrivals ~payloads =
  let lo, hi = ladder_range in
  let rate k = nominal_rps *. (ladder_ratio ** float_of_int k) in
  let probes = ref [] in
  let probe k =
    let rt = rate k in
    let n = min count (int_of_float (rt *. probe_s)) in
    let q = run_phase ~warmup ~rate:rt ~arrivals ~payloads n in
    probes := q :: !probes;
    let ok = passes q in
    note r "  ladder %.1f rps (%d requests): p99 %.1f ms, %s" rt n
      (1000. *. Stats.percentile 99. (latencies q))
      (if ok then "pass" else "fail");
    ok
  in
  let best = ref (lo - 1) and worst = ref (hi + 1) in
  if probe ladder_start then best := ladder_start else worst := ladder_start;
  while !worst - !best > 1 && List.length !probes < max_probes do
    let k =
      if !worst > hi then min hi (!best + 4)
      else if !best < lo then max lo (!worst - 4)
      else (!best + !worst) / 2
    in
    if probe k then best := k else worst := k
  done;
  let v = if !best < lo then rate lo /. ladder_ratio else rate !best in
  (v, !probes)

let run r ~seed ~seconds =
  setup_median r "serve" setup_probe;
  let count = nominal_count seconds in
  let items, requests, payloads, arrivals, warmup = inputs ~seed count in
  note r "serve: %d requests at %.0f rps (open loop) over %d connections; repeated-key share %.3f"
    count nominal_rps conns (Sched.repeat_share items);
  let p = run_phase ~warmup ~rate:nominal_rps ~arrivals ~payloads count in
  let rps, probes = max_rps r ~count ~warmup ~arrivals ~payloads in
  let table = evaluate (Array.append warmup requests) in
  verify_phase r table ~warmup ~requests "nominal" p;
  List.iter (verify_phase ~refusals_ok:true r table ~warmup ~requests "ladder") probes;
  metric r "wall_s" "s" (phase_wall p) ~note:"(nominal schedule: first due to last answer)";
  metric r "cpu_s" "s" p.usage.Proc.cpu_s ~note:"(daemon, launch to drain)";
  metric r "peak_rss_mb" "MB" p.usage.Proc.rss_mb ~note:"(daemon)";
  let lat = latencies p in
  let n = Printf.sprintf "(%d requests, from due time)" count in
  info r "p50_ms" "ms" (1000. *. Stats.median lat) ~note:n;
  info r "p99_ms" "ms" (1000. *. Stats.percentile 99. lat) ~note:n;
  info r "max_rps" "1/s" rps
    ~note:
      (Printf.sprintf "(p99 <= %.0f ms; %d probes, rungs %.0f%% apart)"
         (1000. *. p99_limit_s) (List.length probes) (100. *. (ladder_ratio -. 1.)))

(* Per-layer: the same nominal stream against an untraced and a
   traced (Qdp_obs on) daemon, then every distinct key through
   Eval.run in process. *)
let trace r ~seed ~seconds =
  let count = nominal_count seconds in
  let items, requests, payloads, arrivals, warmup = inputs ~seed count in
  let p =
    Span.with_ "serve.phase.untraced" (fun () ->
        let p = run_phase ~warmup ~rate:nominal_rps ~arrivals ~payloads count in
        Array.iteri
          (fun i t ->
            if not (Float.is_nan t) then
              Span.record ~rid:(i + 1) ~name:"serve.request" ~start:p.due.(i) ~stop:t ())
          p.finished;
        p)
  in
  let metrics_file = out "serve-metrics.json" in
  let pt =
    Span.with_ "serve.phase.traced" (fun () ->
        run_phase ~warmup ~metrics:metrics_file ~rate:nominal_rps ~arrivals ~payloads count)
  in
  let table =
    Span.with_ "serve.verify" (fun () -> evaluate ~trace:true (Array.append requests warmup))
  in
  verify_phase r table ~warmup ~requests "untraced nominal" p;
  verify_phase r table ~warmup ~requests "traced nominal" pt;
  let lat = latencies p in
  let n = Printf.sprintf "(%d requests, from due time)" count in
  metric r "serve.p50_ms" "ms" (1000. *. Stats.median lat) ~note:n;
  metric r "serve.p99_ms" "ms" (1000. *. Stats.percentile 99. lat) ~note:n;
  let counter name =
    let open Qdp_obs.Json in
    let doc = parse (Proc.read_file metrics_file) in
    List.find_map
      (fun m ->
        if Option.bind (member "name" m) string_opt = Some name then
          Option.bind (member "value" m) num_opt
        else None)
      (to_list (Option.value ~default:Null (member "metrics" doc)))
    |> Option.value ~default:nan
  in
  metric r "serve.hit_share" "share"
    (counter "serve.cache.hits" /. counter "serve.requests")
    ~note:"(daemon serve.cache.hits / serve.requests)";
  metric r "serve.repeat_share" "share" (Sched.repeat_share items)
    ~note:"(requests whose key appeared earlier in the stream)";
  (* hits: keys already answered when the request was sent *)
  let answered_at = Hashtbl.create 1024 in
  Array.iteri
    (fun i t ->
      let k = Request.key requests.(i) in
      if not (Float.is_nan t) then
        match Hashtbl.find_opt answered_at k with
        | Some t' when t' <= t -> ()
        | _ -> Hashtbl.replace answered_at k t)
    p.finished;
  let hit_lat =
    List.filter_map
      (fun i ->
        match Hashtbl.find_opt answered_at (Request.key requests.(i)) with
        | Some t when t < p.sent.(i) -> Some (latency p i)
        | _ -> None)
      (List.init count Fun.id)
  in
  metric r "serve.hit_ms" "ms" (1000. *. Stats.median hit_lat)
    ~note:(Printf.sprintf "(median of %d)" (List.length hit_lat));
  let evals kind =
    Hashtbl.fold (fun _ e acc -> if e.faulted = kind then e.eval_s :: acc else acc) table []
  in
  List.iter
    (fun (name, xs) ->
      metric r (name ^ "_p50_ms") "ms" (1000. *. Stats.median xs)
        ~note:(Printf.sprintf "(%d keys)" (List.length xs));
      metric r (name ^ "_p99_ms") "ms" (1000. *. Stats.percentile 99. xs))
    [ ("eval.plain", evals false); ("eval.faulted", evals true) ];
  (* daemon busy time: in-process eval time of each miss of an LRU
     the daemon's size, in send order *)
  let lru = Qdp_serve.Lru.create Qdp_serve.Server.default_config.Qdp_serve.Server.cache_capacity in
  let order = List.sort (fun i j -> compare p.sent.(i) p.sent.(j)) (List.init count Fun.id) in
  let busy =
    List.fold_left
      (fun acc i ->
        let k = Request.key requests.(i) in
        match Qdp_serve.Lru.find lru k with
        | Some () -> acc
        | None ->
            Qdp_serve.Lru.add lru k ();
            acc +. (Hashtbl.find table k).eval_s)
      0. order
  in
  metric r "serve.busy_share" "share" (busy /. phase_wall p)
    ~note:"(summed eval time of misses / phase wall)";
  let overloads =
    Array.fold_left
      (fun acc res ->
        match res with
        | Reject reason when is_overload reason -> acc + 1
        | _ -> acc)
      0 p.results
  in
  metric r "serve.overload_rejects" "count" (float_of_int overloads);
  let late = Array.to_list (Array.mapi (fun i s -> s -. p.due.(i)) p.sent) in
  metric r "gen.late_p99_ms" "ms" (1000. *. Stats.percentile 99. late);
  metric r "trace.overhead_share.serve" "share"
    ((pt.usage.Proc.cpu_s -. p.usage.Proc.cpu_s) /. p.usage.Proc.cpu_s)
    ~note:"(daemon CPU for the same stream, Qdp_obs on vs off)"
