open Qdp_linalg
open Qdp_quantum

type config = { r : int; qubits : int }

let proof_qubits cfg = 2 * cfg.qubits * (cfg.r - 1)

let toy_state ~qubits k =
  let dim = 1 lsl qubits in
  let st = Random.State.make [| k; qubits; 0x707 |] in
  (* real amplitudes: fingerprint-like, so the geodesic interpolation
     attack is the natural product benchmark *)
  Vec.normalize (Vec.init dim (fun _ -> Cx.re (States.gaussian st)))

let layout cfg =
  let b = cfg.qubits in
  let pairs =
    List.concat_map
      (fun j ->
        [ (Printf.sprintf "R%d0" j, b); (Printf.sprintf "R%d1" j, b) ])
      (List.init (cfg.r - 1) (fun j -> j + 1))
  in
  let coins =
    List.init (cfg.r - 1) (fun j -> (Printf.sprintf "C%d" (j + 1), 1))
  in
  Pure.layout ((("L", b) :: pairs) @ coins)

(* A coin-purified run as data: the fixed state [pre] in front of the
   proof registers, the coin count, and the circuit steps.  Every step
   is self-adjoint -- Hadamards, controlled swaps (self-inverse
   permutations), symmetric-subspace projectors and the final POVM
   element [|y><y|] -- so the adjoint of the run is the same steps in
   reverse order. *)
type step =
  | Gate of string list * Mat.t
  | Cswap of string * string * string
  | Sym of string list

type circuit = {
  lay : Pure.layout;
  pre : Vec.t;
  coin_dim : int;
  steps : step list;
}

let run_step s = function
  | Gate (names, m) -> Pure.apply_on s names m
  | Cswap (control, a, b) -> Pure.controlled_swap s ~control a b
  | Sym names -> Pure.project_sym s names

(* V: embed the proof as [pre (x) proof (x) |0...0>_coins], then run. *)
let run c proof =
  let global = Vec.tensor c.pre (Vec.tensor proof (Vec.basis c.coin_dim 0)) in
  List.fold_left run_step (Pure.of_global c.lay global) c.steps

(* V^dagger z into [dst]: the steps in reverse, then the adjoint of the
   embedding -- the partial inner product with [pre] on the leading
   registers and with [|0...0>] on the coins. *)
let run_adjoint_into c z ~dst =
  let zl = Pure.get_layout z in
  if zl != c.lay && zl <> c.lay then invalid_arg "Exact: adjoint run layout";
  let w = Pure.global_vector (List.fold_left run_step z (List.rev c.steps)) in
  let pdim = Vec.dim dst in
  if Vec.dim w <> Vec.dim c.pre * pdim * c.coin_dim then
    invalid_arg "Exact: adjoint run dimension";
  let wr = Vec.raw_re w and wi = Vec.raw_im w in
  let pr = Vec.raw_re c.pre and pi = Vec.raw_im c.pre in
  let dr = Vec.raw_re dst and di = Vec.raw_im dst in
  Array.fill dr 0 pdim 0.;
  Array.fill di 0 pdim 0.;
  for a = 0 to Vec.dim c.pre - 1 do
    let ar = pr.(a) and ai = pi.(a) in
    for p = 0 to pdim - 1 do
      let g = ((a * pdim) + p) * c.coin_dim in
      (* conj pre_a * w_g *)
      dr.(p) <- dr.(p) +. (ar *. wr.(g)) +. (ai *. wi.(g));
      di.(p) <- di.(p) +. (ar *. wi.(g)) -. (ai *. wr.(g))
    done
  done

(* The dense acceptance form: one run per basis proof, then one inner
   product per upper-triangle entry, mirrored. *)
let dense_gram c ~pdim =
  let outs =
    Array.init pdim (fun p -> Pure.global_vector (run c (Vec.basis pdim p)))
  in
  let g = Mat.create pdim pdim in
  for i = 0 to pdim - 1 do
    for j = i to pdim - 1 do
      let z = Vec.dot outs.(i) outs.(j) in
      Mat.set g i j z;
      if j > i then Mat.set g j i (Cx.conj z)
    done
  done;
  g

(* The top eigenpair of V^dagger V, matrix-free: each Lanczos step is
   one forward and one adjoint run.  V embeds the proof isometrically
   (unit [pre], coins in a basis state) and then applies unitaries,
   orthogonal projectors and [|y><y|] for unit [y] -- all contractions
   -- so ||V^dagger V|| <= 1 and 1 is the stopping scale. *)
let global_optimum c ~pdim =
  Qdp_obs.Prof.section "exact.global_opt" @@ fun () ->
  let top, opt =
    Eig.top_operator ~dim:pdim ~scale:1. (fun x ~dst ->
        run_adjoint_into c (run c x) ~dst)
  in
  (Float.max 0. top, opt)

(* Algorithm 3's circuit: at every intermediate node a coin Hadamard
   and a controlled swap of its two registers; then the SWAP test at
   node j compares the register arriving from the left with the kept
   one -- pairs (L, R10), (R11, R20), ... -- and v_r's POVM acts on the
   arriving register. *)
let path_circuit cfg ~x_state ~y_state =
  let r = cfg.r in
  if r < 2 then invalid_arg "Exact: the path circuit needs r >= 2";
  let reg = Printf.sprintf in
  let nodes = List.init (r - 1) (fun j -> j + 1) in
  let links =
    List.concat_map
      (fun j ->
        let c = reg "C%d" j in
        [ Gate ([ c ], Gates.hadamard); Cswap (c, reg "R%d0" j, reg "R%d1" j) ])
      nodes
  in
  let tests =
    Sym [ "L"; "R10" ]
    :: List.init (r - 2) (fun i ->
           Sym [ reg "R%d1" (i + 1); reg "R%d0" (i + 2) ])
  in
  {
    lay = layout cfg;
    pre = x_state;
    coin_dim = 1 lsl (r - 1);
    steps = links @ tests @ [ Gate ([ reg "R%d1" (r - 1) ], Mat.of_vec y_state) ];
  }

let final_state cfg ~x_state ~y_state ~proof =
  run (path_circuit cfg ~x_state ~y_state) proof

let final_state_adjoint cfg ~x_state ~y_state z =
  let dst = Vec.create (1 lsl proof_qubits cfg) in
  run_adjoint_into (path_circuit cfg ~x_state ~y_state) z ~dst;
  dst

let accept_prob cfg ~x_state ~y_state ~proof =
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else Pure.norm2 (final_state cfg ~x_state ~y_state ~proof)

let attack_gram cfg ~x_state ~y_state =
  dense_gram (path_circuit cfg ~x_state ~y_state) ~pdim:(1 lsl proof_qubits cfg)

let product_proof cfg pairs =
  if Array.length pairs <> cfg.r - 1 then
    invalid_arg "Exact.product_proof: need r - 1 pairs";
  let parts =
    Array.to_list pairs
    |> List.concat_map (fun (a, b) -> [ a; b ])
  in
  Vec.tensor_list parts

let honest_proof cfg state =
  product_proof cfg (Array.init (cfg.r - 1) (fun _ -> (state, state)))

let optimal_entangled_attack cfg ~x_state ~y_state =
  if cfg.r < 2 then (Cx.norm2 (Vec.dot y_state x_state), Vec.basis 1 0)
  else
    global_optimum (path_circuit cfg ~x_state ~y_state)
      ~pdim:(1 lsl proof_qubits cfg)

type star_config = { t : int; star_qubits : int }

let star_layout cfg =
  let b = cfg.star_qubits in
  let regs =
    [ ("X", b) ]
    @ List.init (cfg.t - 1) (fun i -> (Printf.sprintf "L%d" (i + 1), b))
    @ [ ("R0", b); ("R1", b); ("C", 1) ]
  in
  Pure.layout regs

(* The star: the internal node's coin-controlled swap, then its
   permutation test on the kept register and all the leaf registers,
   then the root's SWAP test between its own state and the forwarded
   register. *)
let star_circuit cfg ~root_state ~leaf_states =
  if Array.length leaf_states <> cfg.t - 1 then
    invalid_arg "Exact.star_accept_prob: need t - 1 leaf states";
  let leaves = List.init (cfg.t - 1) (fun i -> Printf.sprintf "L%d" (i + 1)) in
  {
    lay = star_layout cfg;
    pre = Vec.tensor_list (root_state :: Array.to_list leaf_states);
    coin_dim = 2;
    steps =
      [
        Gate ([ "C" ], Gates.hadamard);
        Cswap ("C", "R0", "R1");
        Sym ("R0" :: leaves);
        Sym [ "X"; "R1" ];
      ];
  }

let star_proof_dim cfg = 1 lsl (2 * cfg.star_qubits)

let star_final_state cfg ~root_state ~leaf_states ~proof =
  run (star_circuit cfg ~root_state ~leaf_states) proof

let star_accept_prob cfg ~root_state ~leaf_states ~proof =
  Pure.norm2 (star_final_state cfg ~root_state ~leaf_states ~proof)

let star_attack_gram cfg ~root_state ~leaf_states =
  dense_gram
    (star_circuit cfg ~root_state ~leaf_states)
    ~pdim:(star_proof_dim cfg)

let optimal_entangled_star_attack cfg ~root_state ~leaf_states =
  global_optimum
    (star_circuit cfg ~root_state ~leaf_states)
    ~pdim:(star_proof_dim cfg)

let optimal_split_attack st cfg ~x_state ~y_state ~cut_qubits ~sweeps =
  let pq = proof_qubits cfg in
  if cut_qubits <= 0 || cut_qubits >= pq then
    invalid_arg "Exact.optimal_split_attack: cut inside the proof";
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else begin
    let d1 = 1 lsl cut_qubits and d2 = 1 lsl (pq - cut_qubits) in
    let gram = attack_gram cfg ~x_state ~y_state in
    let xi1 = ref (States.random_unit st d1) in
    let xi2 = ref (States.random_unit st d2) in
    let value = ref 0. in
    for _ = 1 to sweeps do
      (* optimize xi1 with xi2 fixed: contract the minor (second)
         factor of the acceptance form with xi2 *)
      let g1 = Mat.quad_minor gram !xi2 in
      let _, v1 = Eig.top_hermitian g1 in
      xi1 := v1;
      (* optimize xi2 with xi1 fixed: contract the major factor *)
      let g2 = Mat.quad_major gram !xi1 in
      let lambda, v2 = Eig.top_hermitian g2 in
      xi2 := v2;
      value := Float.max 0. lambda
    done;
    !value
  end

let best_product_attack cfg ~x_state ~y_state =
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else begin
    let pairs =
      Array.init (cfg.r - 1) (fun i ->
          let s =
            States.geodesic x_state y_state
              (float_of_int (i + 1) /. float_of_int cfg.r)
          in
          (s, s))
    in
    accept_prob cfg ~x_state ~y_state ~proof:(product_proof cfg pairs)
  end
