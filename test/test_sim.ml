(* Differential tests for the acceptance engines: the transfer-matrix
   path DP and tree DP against brute-force coin enumeration, and the
   product-proof engine against the exact state-vector simulator, and
   the fused kernels the exact simulator runs on (Pure.project_sym,
   Mat.quad_minor / quad_major) against naive reference loops. *)

open Qdp_linalg
open Qdp_quantum
open Qdp_commcc
open Qdp_core

let rng = Random.State.make [| 0x51b |]

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let gaussian st =
  let u1 = Float.max 1e-12 (Random.State.float st 1.) in
  let u2 = Random.State.float st 1. in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let random_real_unit st n =
  Vec.normalize (Vec.init n (fun _ -> Cx.re (gaussian st)))

(* Brute force: enumerate all coin vectors, multiply conditional test
   probabilities. *)
let brute_force_path (inst : Sim.path_instance) =
  let r = inst.Sim.length in
  if r = 1 then inst.Sim.left_accept *. inst.Sim.final_accept inst.Sim.left_send
  else begin
    let total = ref 0. in
    let ncoins = r - 1 in
    for coins = 0 to (1 lsl ncoins) - 1 do
      let coin j = (coins lsr (j - 1)) land 1 in
      let kept j =
        let a, b = inst.Sim.pairs.(j - 1) in
        if coin j = 0 then a else b
      in
      let sent j =
        let a, b = inst.Sim.pairs.(j - 1) in
        if coin j = 0 then b else a
      in
      let p = ref inst.Sim.left_accept in
      for j = 1 to r - 1 do
        let arriving = if j = 1 then inst.Sim.left_send else sent (j - 1) in
        p := !p *. Sim.swap_accept arriving (kept j)
      done;
      p := !p *. inst.Sim.final_accept (sent (r - 1));
      total := !total +. !p
    done;
    !total /. float_of_int (1 lsl ncoins)
  end

let random_instance st r dim =
  let reg () = [| random_real_unit st dim |] in
  let target = random_real_unit st dim in
  {
    Sim.length = r;
    left_accept = 0.5 +. Random.State.float st 0.5;
    left_send = reg ();
    pairs = Array.init (r - 1) (fun _ -> (reg (), reg ()));
    final_accept = (fun reg -> Cx.norm2 (Vec.dot target reg.(0)));
  }

let test_path_dp_vs_brute_force () =
  for r = 1 to 8 do
    for trial = 0 to 2 do
      let st = Random.State.make [| r; trial; 0xd1ff |] in
      let inst = random_instance st r 4 in
      check_float ~eps:1e-10
        (Printf.sprintf "r=%d trial=%d" r trial)
        (brute_force_path inst) (Sim.path_accept inst)
    done
  done

let test_path_honest_accepts () =
  let s = random_real_unit rng 8 in
  let inst =
    Sim.two_state_chain ~r:5 ~left:s ~right:s
      ~final:(fun reg -> Cx.norm2 (Vec.dot s reg.(0)))
      Strategy.All_left
  in
  check_float ~eps:1e-12 "honest chain accepts" 1. (Sim.path_accept inst)

let test_swap_accept_bundles () =
  let a = random_real_unit rng 4 and b = random_real_unit rng 4 in
  let c = random_real_unit rng 4 and d = random_real_unit rng 4 in
  (* joint swap on a 2-register bundle: overlap is the product *)
  let ov = Cx.mul (Vec.dot a c) (Vec.dot b d) in
  check_float ~eps:1e-10 "bundle swap accept"
    ((1. +. Cx.norm2 ov) /. 2.)
    (Sim.swap_accept [| a; b |] [| c; d |])

let test_perm_accept_two_is_swap () =
  let a = random_real_unit rng 4 and b = random_real_unit rng 4 in
  check_float ~eps:1e-10 "k=2 permutation = swap"
    (Sim.swap_accept [| a |] [| b |])
    (Sim.perm_accept [ [| a |]; [| b |] ])

let test_perm_accept_identical () =
  let a = random_real_unit rng 4 in
  check_float ~eps:1e-10 "identical registers accept" 1.
    (Sim.perm_accept [ [| a |]; [| a |]; [| a |] ])

(* --- tree DP vs brute force on small trees --- *)

let brute_force_tree st (inst : Sim.tree_instance) =
  (* enumerate all coins of internal nodes *)
  ignore st;
  let tr = inst.Sim.tree in
  let module T = Qdp_network.Spanning_tree in
  let internal =
    List.filter
      (fun v -> T.terminal_of tr v = None)
      (List.init (T.size tr) (fun v -> v))
  in
  let n_int = List.length internal in
  let idx_of v =
    let rec go i = function
      | [] -> raise Not_found
      | w :: ws -> if w = v then i else go (i + 1) ws
    in
    go 0 internal
  in
  let total = ref 0. in
  for coins = 0 to (1 lsl n_int) - 1 do
    let coin v = (coins lsr idx_of v) land 1 in
    let sent v =
      if T.terminal_of tr v <> None then inst.Sim.leaf_state v
      else begin
        let a, b = inst.Sim.internal_pair v in
        if coin v = 0 then b else a
      end
    in
    let kept v =
      let a, b = inst.Sim.internal_pair v in
      if coin v = 0 then a else b
    in
    let p = ref 1. in
    for v = 0 to T.size tr - 1 do
      let children = T.children tr v in
      if children <> [] then begin
        let sents = List.map sent children in
        let own =
          if v = T.root tr then inst.Sim.root_state else kept v
        in
        let test =
          if inst.Sim.use_permutation_test then Sim.perm_accept (own :: sents)
          else
            (* FGNP21 variant: SWAP test against a uniformly random
               child, averaged analytically *)
            List.fold_left (fun acc s -> acc +. Sim.swap_accept own s) 0. sents
            /. float_of_int (List.length sents)
        in
        p := !p *. test
      end
    done;
    total := !total +. !p
  done;
  !total /. float_of_int (1 lsl n_int)

let test_tree_dp_vs_brute_force () =
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.balanced_tree ~arity:2 ~depth:2 in
  (* terminals: root and the four depth-2 leaves: 3, 4, 5, 6 *)
  let tr = T.build_rooted_at g ~terminals:[ 0; 3; 4; 5; 6 ] ~root_terminal:0 in
  for trial = 0 to 2 do
    let st = Random.State.make [| trial; 0x7ee |] in
    let states = Array.init (T.size tr) (fun _ -> [| random_real_unit st 4 |]) in
    let pair_states =
      Array.init (T.size tr) (fun _ ->
          ([| random_real_unit st 4 |], [| random_real_unit st 4 |]))
    in
    let inst =
      {
        Sim.tree = tr;
        root_state = [| random_real_unit st 4 |];
        leaf_state = (fun v -> states.(v));
        internal_pair = (fun v -> pair_states.(v));
        use_permutation_test = true;
      }
    in
    let st2 = Random.State.make [| trial |] in
    check_float ~eps:1e-10
      (Printf.sprintf "tree trial %d" trial)
      (brute_force_tree st2 inst)
      (Sim.tree_accept st2 inst)
  done

let test_tree_dp_vs_brute_force_random_graphs () =
  let module T = Qdp_network.Spanning_tree in
  for seed = 0 to 4 do
    let st = Random.State.make [| seed; 0x9a3 |] in
    let g = Qdp_network.Graph.random_connected st ~n:10 ~extra_edges:(seed mod 4) in
    let terminals = [ 0; 3; 6; 9 ] in
    let tr = T.build g ~terminals in
    let states = Array.init (T.size tr) (fun _ -> [| random_real_unit st 4 |]) in
    let pair_states =
      Array.init (T.size tr) (fun _ ->
          ([| random_real_unit st 4 |], [| random_real_unit st 4 |]))
    in
    let inst =
      {
        Sim.tree = tr;
        root_state = [| random_real_unit st 4 |];
        leaf_state = (fun v -> states.(v));
        internal_pair = (fun v -> pair_states.(v));
        use_permutation_test = seed mod 2 = 0;
      }
    in
    let st2 = Random.State.make [| seed |] in
    check_float ~eps:1e-10
      (Printf.sprintf "random graph seed %d" seed)
      (brute_force_tree st2 inst)
      (Sim.tree_accept st2 inst)
  done

(* --- exact state-vector simulator agreement --- *)

let test_exact_matches_sim_product_proofs () =
  let cfg = { Exact.r = 4; qubits = 1 } in
  for trial = 0 to 4 do
    let st = Random.State.make [| trial; 0xe5a |] in
    let x_state = random_real_unit st 2 in
    let y_state = random_real_unit st 2 in
    (* arbitrary product proof with distinct pair halves *)
    let pairs =
      Array.init 3 (fun _ -> (random_real_unit st 2, random_real_unit st 2))
    in
    let exact =
      Exact.accept_prob cfg ~x_state ~y_state
        ~proof:(Exact.product_proof cfg pairs)
    in
    let sim =
      Sim.path_accept
        {
          Sim.length = 4;
          left_accept = 1.0;
          left_send = [| x_state |];
          pairs = Array.map (fun (a, b) -> ([| a |], [| b |])) pairs;
          final_accept = (fun reg -> Cx.norm2 (Vec.dot y_state reg.(0)));
        }
    in
    check_float ~eps:1e-9 (Printf.sprintf "trial %d" trial) exact sim
  done

let test_exact_honest_complete () =
  let cfg = { Exact.r = 5; qubits = 1 } in
  let s = Exact.toy_state ~qubits:1 4 in
  check_float ~eps:1e-9 "honest proof accepted" 1.
    (Exact.accept_prob cfg ~x_state:s ~y_state:s ~proof:(Exact.honest_proof cfg s))

let test_entangled_beats_or_matches_product () =
  let cfg = { Exact.r = 3; qubits = 1 } in
  let x_state = Exact.toy_state ~qubits:1 1 in
  let y_state = Exact.toy_state ~qubits:1 2 in
  let product = Exact.best_product_attack cfg ~x_state ~y_state in
  let entangled, opt_proof = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
  Alcotest.(check bool) "optimal >= best product" true
    (entangled >= product -. 1e-9);
  (* the optimal proof achieves its eigenvalue *)
  let achieved =
    Exact.accept_prob cfg ~x_state ~y_state ~proof:(Vec.normalize opt_proof)
  in
  check_float ~eps:1e-7 "eigenvector achieves eigenvalue" entangled achieved

let test_entangled_attack_below_soundness_bound () =
  (* the exact optimum must respect Lemma 17's bound *)
  for k = 0 to 2 do
    let cfg = { Exact.r = 3 + k; qubits = 1 } in
    let x_state = Exact.toy_state ~qubits:1 5 in
    let y_state = Exact.toy_state ~qubits:1 11 in
    let entangled, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
    let bound = Eq_path.soundness_bound_single ~r:cfg.Exact.r in
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: %.6f <= %.6f" cfg.Exact.r entangled bound)
      true
      (entangled <= bound +. 1e-9)
  done

(* --- down-tree engine --- *)

let test_down_tree_honest () =
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.path 3 in
  let tr = T.build_rooted_at g ~terminals:[ 0; 3 ] ~root_terminal:0 in
  let msg = [| random_real_unit rng 4 |] in
  let inst =
    {
      Sim.dtree = tr;
      root_message = msg;
      internal_registers =
        (fun v ->
          let delta = List.length (T.children tr v) in
          Array.make (delta + 1) msg);
      leaf_accept = (fun _ recv -> Cx.norm2 (Oneway.bundle_overlap recv msg));
    }
  in
  check_float ~eps:1e-10 "honest down-tree accepts" 1.
    (Sim.down_tree_accept inst)

let test_down_tree_vs_path () =
  (* on a path, the down-tree engine with per-node registers must agree
     with a direct coin enumeration; check a cheating prover *)
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.path 2 in
  let tr = T.build_rooted_at g ~terminals:[ 0; 2 ] ~root_terminal:0 in
  let st = Random.State.make [| 0xdd |] in
  let msg = [| random_real_unit st 4 |] in
  let bad = [| random_real_unit st 4 |] in
  let target = random_real_unit st 4 in
  let inst =
    {
      Sim.dtree = tr;
      root_message = msg;
      internal_registers = (fun _ -> [| msg; bad |]);
      leaf_accept = (fun _ recv -> Cx.norm2 (Vec.dot target recv.(0)));
    }
  in
  (* one internal node with 1 child: permutations of 2 registers: keep
     one, forward the other; SWAP test kept vs received-from-root *)
  let swap_with r = Sim.swap_accept r msg in
  let bob r = Cx.norm2 (Vec.dot target r.(0)) in
  let expected =
    0.5 *. ((swap_with [| msg; bad |].(1) *. bob msg)
           +. (swap_with msg *. bob bad))
  in
  check_float ~eps:1e-10 "matches manual enumeration" expected
    (Sim.down_tree_accept inst)

let test_repeat_accept () =
  check_float ~eps:1e-12 "p^k" 0.25 (Sim.repeat_accept 2 0.5);
  check_float ~eps:1e-12 "k=0" 1. (Sim.repeat_accept 0 0.3)

(* --- the matrix-free global optimum against the dense reference --- *)

(* Oracle: the dense acceptance form (one circuit run per basis proof)
   and the full Jacobi spectrum, independent of Lanczos. *)
let jacobi_top g =
  let evals = Eig.eigenvalues_hermitian g in
  evals.(Array.length evals - 1)

let form_value g v = (Vec.dot v (Mat.apply g v)).Complex.re

let check_optimum what g (value, proof) =
  check_float ~eps:1e-9 (what ^ ": value") (jacobi_top g) value;
  check_float ~eps:1e-9 (what ^ ": proof achieves it") value
    (form_value g proof)

let test_path_optimum_matches_dense () =
  List.iter
    (fun (r, qubits, xk, yk) ->
      let cfg = { Exact.r; qubits } in
      let x_state = Exact.toy_state ~qubits xk in
      let y_state = Exact.toy_state ~qubits yk in
      check_optimum
        (Printf.sprintf "r=%d qubits=%d" r qubits)
        (Exact.attack_gram cfg ~x_state ~y_state)
        (Exact.optimal_entangled_attack cfg ~x_state ~y_state))
    [ (2, 1, 1, 2); (3, 1, 1, 2); (4, 1, 5, 11); (2, 2, 1, 2) ]

let test_star_optimum_matches_dense () =
  List.iter
    (fun (t, star_qubits) ->
      let cfg = { Exact.t; star_qubits } in
      let root_state = Exact.toy_state ~qubits:star_qubits 1 in
      let leaf_states =
        Array.init (t - 1) (fun i -> Exact.toy_state ~qubits:star_qubits (2 + i))
      in
      check_optimum
        (Printf.sprintf "t=%d qubits=%d" t star_qubits)
        (Exact.star_attack_gram cfg ~root_state ~leaf_states)
        (Exact.optimal_entangled_star_attack cfg ~root_state ~leaf_states))
    [ (3, 1); (4, 1); (3, 2) ]

(* V's adjoint, as the matrix-free solver uses it: <V p, z> = <p, V^dagger z>
   for random proofs p and random global states z. *)
let prop_adjoint_identity =
  QCheck.Test.make ~name:"adjoint <Vp,z> = <p,V^dagger z>"
    ~count:20
    QCheck.(pair (int_range 2 4) small_nat)
    (fun (r, seed) ->
      let st = Random.State.make [| r; seed; 0xad7 |] in
      let cfg = { Exact.r; qubits = 1 } in
      let x_state = States.random_unit st 2 and y_state = States.random_unit st 2 in
      let p = States.random_unit st (1 lsl Exact.proof_qubits cfg) in
      let vp = Exact.final_state cfg ~x_state ~y_state ~proof:p in
      let z =
        Qdp_quantum.Pure.of_global (Qdp_quantum.Pure.get_layout vp)
          (States.random_unit st (Qdp_quantum.Pure.dim vp))
      in
      let lhs = Qdp_quantum.Pure.inner vp z in
      let rhs = Vec.dot p (Exact.final_state_adjoint cfg ~x_state ~y_state z) in
      Cx.abs (Cx.sub lhs rhs) <= 1e-12)

(* The adjoint needs z over V's own layout: the same registers in
   another order have the same dimension but mean a different state. *)
let test_adjoint_rejects_reordered_layout () =
  let cfg = { Exact.r = 3; qubits = 1 } in
  let x_state = Exact.toy_state ~qubits:1 1 in
  let y_state = Exact.toy_state ~qubits:1 2 in
  let p = Vec.basis (1 lsl Exact.proof_qubits cfg) 0 in
  let vp = Exact.final_state cfg ~x_state ~y_state ~proof:p in
  let swapped =
    Pure.layout (List.rev (Pure.layout_registers (Pure.get_layout vp)))
  in
  let z = Pure.of_global swapped (Pure.global_vector vp) in
  Alcotest.check_raises "reordered registers"
    (Invalid_argument "Exact: adjoint run layout") (fun () ->
      ignore (Exact.final_state_adjoint cfg ~x_state ~y_state z))

let with_jobs n f =
  let old = Qdp_par.jobs () in
  Qdp_par.set_jobs n;
  Fun.protect ~finally:(fun () -> Qdp_par.set_jobs old) f

let test_exact_gram_jobs_invariant () =
  let cfg = { Exact.r = 3; qubits = 1 } in
  let x_state = Exact.toy_state ~qubits:1 1 in
  let y_state = Exact.toy_state ~qubits:1 2 in
  let run () =
    ( Exact.attack_gram cfg ~x_state ~y_state,
      Exact.optimal_entangled_attack cfg ~x_state ~y_state )
  in
  let g1, (v1, p1) = with_jobs 1 run and g4, (v4, p4) = with_jobs 4 run in
  Alcotest.(check bool) "attack gram byte-identical across jobs" true
    (Mat.equal ~eps:0. g1 g4);
  Alcotest.(check bool) "optimum byte-identical across jobs" true
    (Int64.bits_of_float v1 = Int64.bits_of_float v4
    && Vec.raw_re p1 = Vec.raw_re p4
    && Vec.raw_im p1 = Vec.raw_im p4)

(* --- the kernels the exact pipeline runs on --- *)

(* Mat.quad_minor / quad_major against the boxed quadruple loops they
   replaced. *)
let naive_quad_minor g v =
  let sub = Vec.dim v in
  let n = Mat.rows g / sub in
  Mat.init n n (fun i i' ->
      let acc = ref Cx.zero in
      for j = 0 to sub - 1 do
        for j' = 0 to sub - 1 do
          acc :=
            Cx.add !acc
              (Cx.mul
                 (Cx.mul (Cx.conj (Vec.get v j))
                    (Mat.get g ((i * sub) + j) ((i' * sub) + j')))
                 (Vec.get v j'))
        done
      done;
      !acc)

let naive_quad_major g u =
  let n = Vec.dim u in
  let sub = Mat.rows g / n in
  Mat.init sub sub (fun j j' ->
      let acc = ref Cx.zero in
      for i = 0 to n - 1 do
        for i' = 0 to n - 1 do
          acc :=
            Cx.add !acc
              (Cx.mul
                 (Cx.mul (Cx.conj (Vec.get u i))
                    (Mat.get g ((i * sub) + j) ((i' * sub) + j')))
                 (Vec.get u i'))
        done
      done;
      !acc)

let prop_quad_contractions =
  QCheck.Test.make ~name:"quad_minor/quad_major match naive nests"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, k) ->
      let n = 2 + (k mod 3) and sub = 2 + ((k / 3) mod 3) in
      let st = Random.State.make [| seed; 0x40ad |] in
      let g =
        Mat.init (n * sub) (n * sub) (fun _ _ -> Cx.make (gaussian st) (gaussian st))
      in
      let v = States.random_unit st sub in
      let u = States.random_unit st n in
      Mat.equal (Mat.quad_minor g v) (naive_quad_minor g v)
      && Mat.equal (Mat.quad_major g u) (naive_quad_major g u))

(* naive symmetric projection: average the scalar permutation unitary
   over all k! permutations, materializing each term *)
let naive_project_sym s names =
  let arr = Array.of_list names in
  let perms = Symmetric.permutations (Array.length arr) in
  let fact = float_of_int (List.length perms) in
  let acc = ref (Vec.create (Pure.dim s)) in
  List.iter
    (fun pi ->
      acc :=
        Vec.add !acc (Pure.global_vector (Pure.permute_registers s arr pi)))
    perms;
  Vec.scale (Cx.re (1. /. fact)) !acc

let prop_project_sym_fused =
  QCheck.Test.make ~name:"fused project_sym matches naive average"
    ~count:40 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0x5f1 |] in
      let lay = Pure.layout [ ("U", 1); ("V", 1); ("W", 1) ] in
      let dim = 1 lsl Pure.total_qubits lay in
      let s = Pure.of_global lay (States.random_unit st dim) in
      let names = [ "U"; "V"; "W" ] in
      Vec.equal (Pure.global_vector (Pure.project_sym s names))
        (naive_project_sym s names))

let () =
  Alcotest.run "sim"
    [
      ( "path",
        [
          Alcotest.test_case "DP vs brute force" `Quick test_path_dp_vs_brute_force;
          Alcotest.test_case "honest accepts" `Quick test_path_honest_accepts;
          Alcotest.test_case "bundle swap accept" `Quick test_swap_accept_bundles;
          Alcotest.test_case "perm k=2 = swap" `Quick test_perm_accept_two_is_swap;
          Alcotest.test_case "perm identical" `Quick test_perm_accept_identical;
        ] );
      ( "tree",
        [
          Alcotest.test_case "DP vs brute force" `Quick test_tree_dp_vs_brute_force;
          Alcotest.test_case "DP vs brute force (random graphs)" `Quick
            test_tree_dp_vs_brute_force_random_graphs;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches product engine" `Quick
            test_exact_matches_sim_product_proofs;
          Alcotest.test_case "honest complete" `Quick test_exact_honest_complete;
          Alcotest.test_case "entangled optimum" `Quick
            test_entangled_beats_or_matches_product;
          Alcotest.test_case "respects Lemma 17" `Quick
            test_entangled_attack_below_soundness_bound;
        ] );
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_project_sym_fused; prop_quad_contractions ] );
      ( "exact-pipeline",
        [
          Alcotest.test_case "path optimum matches dense ref" `Quick
            test_path_optimum_matches_dense;
          Alcotest.test_case "star optimum matches dense ref" `Quick
            test_star_optimum_matches_dense;
          QCheck_alcotest.to_alcotest prop_adjoint_identity;
          Alcotest.test_case "adjoint rejects reordered layout" `Quick
            test_adjoint_rejects_reordered_layout;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "attack gram jobs-invariant" `Quick
            test_exact_gram_jobs_invariant;
        ] );
      ( "down_tree",
        [
          Alcotest.test_case "honest accepts" `Quick test_down_tree_honest;
          Alcotest.test_case "manual enumeration" `Quick test_down_tree_vs_path;
          Alcotest.test_case "repeat" `Quick test_repeat_accept;
        ] );
    ]
