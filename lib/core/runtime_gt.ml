open Qdp_linalg
open Qdp_codes
open Qdp_network

type prover = { node_index : int -> int; chain : Strategy.t }

let honest x y =
  match Qdp_commcc.Problems.gt_witness x y with
  | Some i -> { node_index = (fun _ -> i); chain = Strategy.All_left }
  | None -> invalid_arg "Runtime_gt.honest: GT (x, y) = 0"

let of_prover (p : Gt.prover) =
  { node_index = (fun _ -> p.Gt.index); chain = p.Gt.eq_strategy }

type message = { idx : int; reg : Vec.t }

type prepared = {
  r : int;
  g : Graph.t;
  regs : message array;
      (** node [j]'s claimed index with its register: the prefix
          fingerprint [|h_x>] at [v_0] (forwarded), [|h_y>] at [v_r]
          (kept), the prover's chain state in between (both) *)
  left_ok : bool;  (** v_0's classical check: x_i = 1 *)
  right_ok : bool;  (** v_r's classical check: y_i = 0 *)
}

let prepare (params : Gt.params) x y prover =
  let r = params.Gt.r in
  let index = Array.init (r + 1) prover.node_index in
  (* the prefix fingerprints, encoded once per distinct claimed index *)
  let prefix = Hashtbl.create 4 in
  let prefix_states i =
    match Hashtbl.find_opt prefix i with
    | Some s -> s
    | None ->
        let s = Gt.prefix_states params i x y in
        Hashtbl.add prefix i s;
        s
  in
  let reg j =
    let hx, hy = prefix_states index.(j) in
    if j = 0 then hx
    else if j = r then hy
    else Strategy.node_state ~r ~left:hx ~right:hy prover.chain j
  in
  let valid i = i >= 0 && i < params.Gt.n in
  {
    r;
    g = Graph.path r;
    regs = Array.init (r + 1) (fun j -> { idx = index.(j); reg = reg j });
    left_ok = valid index.(0) && Gf2.get x index.(0);
    right_ok = valid index.(r) && not (Gf2.get y index.(r));
  }

type node_state = { own : message; mutable verdict : Runtime.verdict }

let run_with ?faults st prep =
  let r = prep.r in
  let program =
    {
      Runtime.init =
        (fun id ->
          let own = prep.regs.(id) in
          if id = 0 then
            { own; verdict = (if prep.left_ok then Accept else Reject) }
          else if id = r then
            { own; verdict = (if prep.right_ok then Accept else Reject) }
          else begin
            (* the symmetrization coin: both halves are the same
               register, but the coin is still drawn so the sampled
               verdicts keep their stream position *)
            ignore (Random.State.bool st);
            { own; verdict = Accept }
          end);
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 ->
              if id < r then (state, [ (id + 1, state.own) ]) else (state, [])
          | 2 -> (
              if id = 0 then (state, [])
              else
                match inbox with
                | [ (_, msg) ] ->
                    if msg.idx <> state.own.idx then begin
                      (* Algorithm 7's neighbour index comparison *)
                      state.verdict <- Runtime.Reject;
                      (state, [])
                    end
                    else begin
                      let p =
                        Sim.swap_accept [| msg.reg |] [| state.own.reg |]
                      in
                      if Random.State.float st 1. > p then
                        state.verdict <- Runtime.Reject;
                      (state, [])
                    end
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

let run_once st params x y prover = run st (prepare params x y prover)

(* Messages pair a classical index header with a quantum register; the
   environment's register noise corrupts the register and leaves the
   header intact (header corruption is a classical fault the index
   comparison already catches deterministically). *)
let run_faulty st (env : Fault_env.t) prep =
  let corrupt st m = { m with reg = Fault_env.apply_qnoise env st m.reg } in
  let faults = Fault_env.injector ~corrupt env in
  run_with ~faults st prep

let estimate_acceptance st ~trials params x y prover =
  let prep = prepare params x y prover in
  Runtime.estimate_acceptance ~st ~trials (fun st -> fst (run st prep))
