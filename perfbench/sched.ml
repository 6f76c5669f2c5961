(* The [serve] workload's inputs, as pure functions of a seed: the
   Poisson arrival schedule and the request mix.  Kept free of the
   library so the unit tests can pin them down. *)

(* [arrivals ~seed ~count] is [count] increasing arrival offsets of a
   unit-rate Poisson process (exponential gaps); divide by a rate in
   requests/s to get due times in seconds. *)
let arrivals ~seed ~count =
  let st = Random.State.make [| seed; 0xa77 |] in
  let t = ref 0. in
  Array.init count (fun _ ->
      (* 1 - u lies in (0, 1], so the log is finite *)
      t := !t -. log (1. -. Random.State.float st 1.);
      !t)

(* Zipf law over ranks [1..k]: P(rank = i) proportional to
   [1 / i^exponent], sampled by inverting its cumulative table. *)
type zipf = float array

let zipf ~k ~exponent : zipf =
  if k < 1 then invalid_arg "Sched.zipf: k < 1";
  let w = Array.init k (fun i -> 1. /. (float_of_int (i + 1) ** exponent)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw (z : zipf) st =
  let u = Random.State.float st 1. in
  (* first index whose cumulative weight exceeds u *)
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo + 1

type fault = { kind : string; strength : float; trials : int }

type item = {
  id : string;  (* registry id *)
  n : int;  (* input length *)
  seed : int;  (* instance seed: the Zipf rank *)
  fault : fault option;
}

let sizes = [| 16; 32; 64 |]

(* Faulted requests stop at n = 32: building a fault suite at n = 64
   costs up to 0.45 s (gt), whatever the trial count, and one such
   evaluation holds the single-threaded daemon long enough to dominate
   every latency figure of a run. *)
let faulted_sizes = [| 16; 32 |]
let trial_counts = [| 5; 10; 20 |]

(* Instance seeds are Zipf ranks over [key_ranks] per (protocol, size,
   fault) shape: with 13 protocols x 3 sizes the key space is far
   larger than the daemon's 512-entry LRU, the head of the law repeats
   and the tail is mostly new. *)
let key_ranks = 1000
let zipf_exponent = 1.1

(* [mix ~seed ~ids ~fault_ids ~count] is the request stream.  It is
   built in blocks: each block holds every [ids] entry once at every
   size in {!sizes}, plus one faulted request per [fault_ids] entry,
   shuffled.  The faulted requests rotate through {!faulted_sizes},
   fault kinds ([drop]/[flip]) and {!trial_counts} with the block
   index, so every seed sees the same mix of shapes and only the order
   and the instance seeds vary — which keeps the cost per request
   comparable across seeds. *)
let mix ~seed ~ids ~fault_ids ~count =
  let st = Random.State.make [| seed; 0x313 |] in
  let z = zipf ~k:key_ranks ~exponent:zipf_exponent in
  let out = ref [] and len = ref 0 in
  let block = ref 0 in
  while !len < count do
    let b = !block in
    let plain =
      List.concat_map
        (fun id -> Array.to_list (Array.map (fun n -> (id, n, None)) sizes))
        ids
    in
    let faulted =
      List.mapi
        (fun j id ->
          let n = faulted_sizes.((b + j) mod Array.length faulted_sizes) in
          let kind = if (b + j + (b / 2)) mod 2 = 0 then "drop" else "flip" in
          let trials = trial_counts.((b + (2 * j)) mod Array.length trial_counts) in
          (id, n, Some { kind; strength = 0.1; trials }))
        fault_ids
    in
    let shapes = Array.of_list (plain @ faulted) in
    for i = Array.length shapes - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = shapes.(i) in
      shapes.(i) <- shapes.(j);
      shapes.(j) <- t
    done;
    Array.iter
      (fun (id, n, fault) ->
        if !len < count then begin
          out := { id; n; seed = zipf_draw z st; fault } :: !out;
          incr len
        end)
      shapes;
    incr block
  done;
  Array.of_list (List.rev !out)

(* Share of requests whose item already appeared earlier in the
   stream. *)
let repeat_share items =
  let seen = Hashtbl.create 1024 in
  let repeats = ref 0 in
  Array.iter
    (fun it ->
      if Hashtbl.mem seen it then incr repeats else Hashtbl.replace seen it ())
    items;
  if Array.length items = 0 then 0.
  else float_of_int !repeats /. float_of_int (Array.length items)
