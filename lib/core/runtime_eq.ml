open Qdp_linalg
open Qdp_fingerprint
open Qdp_network

type params = Eq_path.params = {
  n : int;
  r : int;
  seed : int;
  repetitions : int;
}

type prepared = {
  r : int;
  g : Graph.t;
  hx : Vec.t;  (** v_0's fingerprint, forwarded right in round 1 *)
  hy : Vec.t;  (** v_r's measurement vector [|h_y>] *)
  middle : Vec.t array;  (** the prover's register at node [j], index [j - 1] *)
}

let prepare params x y strategy =
  let fp = Fingerprint.standard ~seed:params.seed ~n:params.n in
  let hx = Fingerprint.state fp x in
  let hy = Fingerprint.state fp y in
  let prover_state =
    Strategy.node_state ~r:params.r ~left:hx ~right:hy
      ~embed:(Fingerprint.state fp) strategy
  in
  {
    r = params.r;
    g = Graph.path params.r;
    hx;
    hy;
    middle = Array.init (max 0 (params.r - 1)) (fun k -> prover_state (k + 1));
  }

type node_state = {
  reg : Vec.t option;
      (** register forwarded right in round 1; a middle node also
          keeps it for its local SWAP test *)
  mutable verdict : Runtime.verdict;
}

let run_with ?faults st prep =
  let r = prep.r in
  let program =
    {
      Runtime.init =
        (fun id ->
          if id = 0 then { reg = Some prep.hx; verdict = Accept }
          else if id = r then { reg = None; verdict = Accept }
          else begin
            (* The prover's pair is symmetrized by a local coin.  Both
               halves are the same product register, so the coin picks
               nothing, but it is still drawn: the sampled verdicts
               depend on the stream position. *)
            ignore (Random.State.bool st);
            { reg = Some prep.middle.(id - 1); verdict = Accept }
          end);
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 -> (
              (* every node except v_r forwards its register right *)
              match state.reg with
              | Some reg when id < r -> (state, [ (id + 1, reg) ])
              | _ -> (state, []))
          | 2 -> (
              (* receive from the left and test *)
              if id = 0 then (state, [])
              else
                match (state.reg, inbox) with
                | Some kept, [ (_, arriving) ] ->
                    let p = Sim.swap_accept [| arriving |] [| kept |] in
                    if Random.State.float st 1. > p then
                      state.verdict <- Runtime.Reject;
                    (state, [])
                | None, [ (_, arriving) ] ->
                    (* v_r measures {|h_y><h_y|, I - |h_y><h_y|} *)
                    if Vec.dim arriving <> Vec.dim prep.hy then
                      invalid_arg "Runtime_eq: register dimension";
                    let p = Cx.norm2 (Vec.dot prep.hy arriving) in
                    if Random.State.float st 1. > p then
                      state.verdict <- Runtime.Reject;
                    (state, [])
                | _ ->
                    state.verdict <- Runtime.Reject;
                    (state, []))
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  Runtime.run ?faults prep.g ~rounds:2 program

let run st prep =
  let verdicts, stats = run_with st prep in
  (Runtime.global_verdict verdicts = Runtime.Accept, stats)

let run_once st params x y strategy = run st (prepare params x y strategy)

(* Payloads are bare fingerprint registers, so the environment's
   register noise is the payload corruptor. *)
let run_faulty st (env : Fault_env.t) prep =
  let faults = Fault_env.injector ~corrupt:(Fault_env.apply_qnoise env) env in
  run_with ~faults st prep

let estimate_acceptance st ~trials params x y strategy =
  let prep = prepare params x y strategy in
  Runtime.estimate_acceptance ~st ~trials (fun st -> fst (run st prep))
