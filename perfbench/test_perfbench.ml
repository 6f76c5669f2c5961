(* Unit tests of the benchmark's pure parts: the Poisson schedule,
   the Zipf law and the serve request mix, plus the statistics and
   span self times the reports are built from. *)

let ids = [ "a"; "b"; "c" ]
let fault_ids = [ "a"; "c" ]

let test_arrivals () =
  let a = Sched.arrivals ~seed:7 ~count:20_000 in
  Alcotest.(check bool) "same seed, same schedule" true (a = Sched.arrivals ~seed:7 ~count:20_000);
  Alcotest.(check bool) "another seed, another schedule" false
    (a = Sched.arrivals ~seed:8 ~count:20_000);
  let increasing = ref true in
  Array.iteri (fun i t -> if i > 0 && t <= a.(i - 1) then increasing := false) a;
  Alcotest.(check bool) "strictly increasing" true !increasing;
  (* unit rate: the mean gap is 1 *)
  let mean = a.(Array.length a - 1) /. float_of_int (Array.length a) in
  Alcotest.(check bool) "mean gap near 1" true (Float.abs (mean -. 1.) < 0.03)

let test_zipf () =
  let z = Sched.zipf ~k:100 ~exponent:1.1 in
  Alcotest.(check (float 1e-9)) "cdf ends at 1" 1. z.(99);
  let st = Random.State.make [| 3 |] in
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let k = Sched.zipf_draw z st in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "rank 0 never drawn" 0 counts.(0);
  Alcotest.(check bool) "rank 1 beats rank 2" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(2) > counts.(10));
  (* P(1) / P(2) = 2^1.1 *)
  let ratio = float_of_int counts.(1) /. float_of_int counts.(2) in
  Alcotest.(check bool) "head ratio near 2^1.1" true (Float.abs (ratio -. (2. ** 1.1)) < 0.15)

let test_mix () =
  let m = Sched.mix ~seed:5 ~ids ~fault_ids ~count:110 in
  Alcotest.(check int) "count" 110 (Array.length m);
  Alcotest.(check bool) "deterministic" true (m = Sched.mix ~seed:5 ~ids ~fault_ids ~count:110);
  (* one block = 3 ids x 3 sizes + 2 faulted *)
  let block = Array.sub m 0 11 in
  List.iter
    (fun id ->
      Array.iter
        (fun n ->
          let k =
            Array.fold_left
              (fun acc (it : Sched.item) ->
                if it.id = id && it.n = n && it.fault = None then acc + 1 else acc)
              0 block
          in
          Alcotest.(check int) (Printf.sprintf "%s at n=%d once per block" id n) 1 k)
        Sched.sizes)
    ids;
  let faulted = List.filter (fun (it : Sched.item) -> it.fault <> None) (Array.to_list block) in
  Alcotest.(check (list string)) "one faulted request per fault id" fault_ids
    (List.sort compare (List.map (fun (it : Sched.item) -> it.id) faulted));
  Array.iter
    (fun (it : Sched.item) ->
      Alcotest.(check bool) "seed is a rank" true (it.seed >= 1 && it.seed <= Sched.key_ranks);
      match it.fault with
      | None -> ()
      | Some f ->
          Alcotest.(check bool) "drop or flip" true (f.kind = "drop" || f.kind = "flip");
          Alcotest.(check bool) "5-20 trials" true (f.trials >= 5 && f.trials <= 20))
    m;
  let share = Sched.repeat_share m in
  Alcotest.(check bool) "some keys repeat" true (share > 0.)

let test_repeat_share () =
  let it seed = { Sched.id = "a"; n = 16; seed; fault = None } in
  Alcotest.(check (float 1e-9)) "2 of 4 repeat" 0.5
    (Sched.repeat_share [| it 1; it 1; it 2; it 1 |])

let test_stats () =
  Alcotest.(check (float 1e-9)) "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99. (Stats.percentile 99. xs);
  Alcotest.(check (float 1e-9)) "p99 of 3 samples is the max" 7.
    (Stats.percentile 99. [ 5.; 7.; 6. ])

let test_self_time () =
  let span id ?parent name start stop = { Span.id; name; start; stop; parent; rid = None } in
  let all =
    [ span 0 "p" 0. 10.; span 1 ~parent:0 "c" 1. 4.; span 2 ~parent:0 "c" 3. 5.;
      span 3 ~parent:2 "g" 3. 4. ]
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "self = duration minus the union of direct children"
    [ ("p", 6.); ("c", 4.); ("g", 1.) ]
    (Span.self_times all);
  Alcotest.(check (float 1e-9)) "child total" 5. (Span.total all "c")

let () =
  Alcotest.run "perfbench"
    [
      ( "schedule",
        [
          Alcotest.test_case "poisson arrivals" `Quick test_arrivals;
          Alcotest.test_case "zipf law" `Quick test_zipf;
          Alcotest.test_case "request mix" `Quick test_mix;
          Alcotest.test_case "repeat share" `Quick test_repeat_share;
        ] );
      ( "report",
        [
          Alcotest.test_case "percentiles" `Quick test_stats;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
