open Qdp_linalg
open Qdp_fingerprint
open Qdp_network

type prepared = {
  tr : Spanning_tree.t;
  tree_g : Graph.t;  (** the spanning tree materialized as its own network *)
  child_count : int array;
  use_permutation_test : bool;
  outgoing : Vec.t option array;  (** register node [v] sends its parent *)
  kept : Vec.t option array;  (** register node [v] tests against, if any *)
}

let prepare params g ~terminals ~inputs strategy =
  let fp =
    Fingerprint.standard ~seed:params.Eq_tree.seed ~n:params.Eq_tree.n
  in
  let states = Array.map (Fingerprint.state fp) inputs in
  let tr = Eq_tree.tree_of g ~terminals in
  let height = max 1 (Spanning_tree.height tr) in
  let internal_state =
    match strategy with
    | Eq_tree.Honest -> fun _ -> states.(0)
    | Eq_tree.Constant z ->
        let s = Fingerprint.state fp z in
        fun _ -> s
    | Eq_tree.Depth_interpolate target ->
        fun v ->
          States.geodesic states.(0) states.(target)
            (float_of_int (Spanning_tree.depth tr v) /. float_of_int height)
  in
  let size = Spanning_tree.size tr in
  let tree_g = Graph.create size in
  let child_count = Array.make size 0 in
  for v = 0 to size - 1 do
    match Spanning_tree.parent tr v with
    | Some p ->
        Graph.add_edge tree_g v p;
        child_count.(p) <- child_count.(p) + 1
    | None -> ()
  done;
  let root = Spanning_tree.root tr in
  (* terminal leaves send their own fingerprint and test nothing; the
     root terminal tests its own fingerprint; every other node forwards
     and tests the prover's register *)
  let regs v =
    match Spanning_tree.terminal_of tr v with
    | Some i when v <> root -> (Some states.(i), None)
    | Some _ -> (None, Some states.(0))
    | None ->
        let s = internal_state v in
        (Some s, Some s)
  in
  let both = Array.init size regs in
  {
    tr;
    tree_g;
    child_count;
    use_permutation_test = params.Eq_tree.use_permutation_test;
    outgoing = Array.map fst both;
    kept = Array.map snd both;
  }

type node_state = { mutable verdict : Runtime.verdict }

let run_with ?faults st prep =
  let program =
    {
      Runtime.init =
        (fun v ->
          if Spanning_tree.terminal_of prep.tr v = None then
            (* the symmetrization coin of the prover's pair: both halves
               are the same register, but the coin is still drawn so the
               sampled verdicts keep their stream position *)
            ignore (Random.State.bool st);
          { verdict = Accept });
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 -> (
              match (prep.outgoing.(id), Spanning_tree.parent prep.tr id) with
              | Some reg, Some p -> (state, [ (p, reg) ])
              | _ -> (state, []))
          | 2 ->
              (* timeout-as-reject: every tree child must report *)
              let senders =
                List.length (List.sort_uniq compare (List.map fst inbox))
              in
              if senders < prep.child_count.(id) then
                state.verdict <- Runtime.Reject;
              (match (prep.kept.(id), inbox) with
              | Some own, _ :: _ ->
                  let sents = List.map (fun (_, reg) -> [| reg |]) inbox in
                  let p =
                    if prep.use_permutation_test then
                      Sim.perm_accept ([| own |] :: sents)
                    else begin
                      (* FGNP21 ablation: uniformly random child *)
                      let arr = Array.of_list sents in
                      let pick = arr.(Random.State.int st (Array.length arr)) in
                      Sim.swap_accept [| own |] pick
                    end
                  in
                  if Random.State.float st 1. > p then
                    state.verdict <- Runtime.Reject;
                  (state, [])
              | _ -> (state, []));
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  Runtime.run ?faults prep.tree_g ~rounds:2 program

let run st prep =
  let verdicts, stats = run_with st prep in
  (Runtime.global_verdict verdicts = Runtime.Accept, stats)

let run_once st params g ~terminals ~inputs strategy =
  run st (prepare params g ~terminals ~inputs strategy)

(* Payloads are bare fingerprint registers, as in the path backend. *)
let run_faulty st (env : Fault_env.t) prep =
  let faults = Fault_env.injector ~corrupt:(Fault_env.apply_qnoise env) env in
  run_with ~faults st prep

let estimate_acceptance st ~trials params g ~terminals ~inputs strategy =
  let prep = prepare params g ~terminals ~inputs strategy in
  Runtime.estimate_acceptance ~st ~trials (fun st -> fst (run st prep))
