(* Tests for the quantum substrate: gates, symmetric subspace, SWAP and
   permutation tests, the register state-vector simulator, density
   operators and distance measures. *)

open Qdp_linalg
open Qdp_quantum

let rng = Random.State.make [| 0x9a17 |]

let gaussian st =
  let u1 = Float.max 1e-12 (Random.State.float st 1.) in
  let u2 = Random.State.float st 1. in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let random_unit st n =
  Vec.normalize (Vec.init n (fun _ -> Cx.make (gaussian st) (gaussian st)))

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* --- gates --- *)

let test_gates_unitary () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " unitary") true (Mat.is_unitary g))
    [
      ("hadamard", Gates.hadamard);
      ("pauli_x", Gates.pauli_x);
      ("pauli_y", Gates.pauli_y);
      ("pauli_z", Gates.pauli_z);
      ("phase", Gates.phase 0.7);
      ("rotation_y", Gates.rotation_y 1.1);
      ("cnot", Gates.cnot);
      ("cswap 2", Gates.cswap 2);
      ("cswap 3", Gates.cswap 3);
    ]

let test_hadamard_plus () =
  let plus = Mat.apply Gates.hadamard (Vec.basis 2 0) in
  check_float "amp 0" (1. /. Float.sqrt 2.) (Vec.get plus 0).Complex.re;
  check_float "amp 1" (1. /. Float.sqrt 2.) (Vec.get plus 1).Complex.re

let test_cswap_action () =
  let a = random_unit rng 2 and b = random_unit rng 2 in
  (* control = |1>: swap happens *)
  let input = Vec.tensor (Vec.basis 2 1) (Vec.tensor a b) in
  let out = Mat.apply (Gates.cswap 2) input in
  let expected = Vec.tensor (Vec.basis 2 1) (Vec.tensor b a) in
  Alcotest.(check bool) "controlled swap" true (Vec.equal ~eps:1e-9 out expected)

(* --- symmetric group machinery --- *)

let test_permutations_count () =
  Alcotest.(check int) "3! perms" 6 (List.length (Symmetric.permutations 3));
  Alcotest.(check int) "4! perms" 24 (List.length (Symmetric.permutations 4))

let test_u_pi_unitary () =
  List.iter
    (fun pi ->
      Alcotest.(check bool) "U_pi unitary" true
        (Mat.is_unitary (Symmetric.u_pi ~d:2 pi)))
    (Symmetric.permutations 3)

let test_u_pi_composition () =
  let perms = Symmetric.permutations 3 in
  let p = List.nth perms 1 and q = List.nth perms 4 in
  let lhs = Mat.mul (Symmetric.u_pi ~d:2 p) (Symmetric.u_pi ~d:2 q) in
  let rhs = Symmetric.u_pi ~d:2 (Symmetric.compose p q) in
  Alcotest.(check bool) "U_p U_q = U_{pq}" true (Mat.equal ~eps:1e-9 lhs rhs)

let test_projector_is_projector () =
  let p = Symmetric.projector ~d:2 ~k:3 in
  Alcotest.(check bool) "hermitian" true (Mat.is_hermitian p);
  Alcotest.(check bool) "idempotent" true (Mat.equal ~eps:1e-9 (Mat.mul p p) p)

let test_symmetric_subspace_dimension () =
  List.iter
    (fun (d, k) ->
      let p = Symmetric.projector ~d ~k in
      let tr = (Mat.trace p).Complex.re in
      check_float ~eps:1e-7
        (Printf.sprintf "tr Pi_sym (d=%d,k=%d)" d k)
        (float_of_int (Symmetric.subspace_dimension ~d ~k))
        tr)
    [ (2, 2); (2, 3); (3, 2); (2, 4); (3, 3) ]

let test_apply_projector_agrees () =
  let d = 2 and k = 3 in
  let v = random_unit rng (1 lsl 3) in
  let via_mat = Mat.apply (Symmetric.projector ~d ~k) v in
  let via_fn = Symmetric.apply_projector ~d ~k v in
  Alcotest.(check bool) "apply_projector = projector" true
    (Vec.equal ~eps:1e-9 via_mat via_fn)

(* --- SWAP test --- *)

let test_swap_product_formula () =
  let a = random_unit rng 4 and b = random_unit rng 4 in
  let psi = Vec.tensor a b in
  let p_formula = Swap_test.accept_prob_product a b in
  let p_proj = Swap_test.accept_prob_pure psi in
  let p_circuit = Swap_test.circuit_accept_prob psi in
  check_float ~eps:1e-9 "projector = product formula" p_formula p_proj;
  check_float ~eps:1e-9 "circuit = product formula" p_formula p_circuit

let test_swap_identical_accepts () =
  let a = random_unit rng 8 in
  check_float ~eps:1e-9 "identical states accept" 1.
    (Swap_test.accept_prob_product a a)

let test_swap_entangled_state () =
  (* the antisymmetric Bell state is rejected with probability 1 *)
  let singlet =
    Vec.normalize
      (Vec.of_array [| Cx.zero; Cx.one; Cx.re (-1.); Cx.zero |])
  in
  check_float ~eps:1e-9 "singlet rejected" 0. (Swap_test.accept_prob_pure singlet);
  let triplet = Vec.normalize (Vec.of_array [| Cx.zero; Cx.one; Cx.one; Cx.zero |]) in
  check_float ~eps:1e-9 "triplet accepted" 1. (Swap_test.accept_prob_pure triplet)

let test_swap_density () =
  let a = random_unit rng 2 and b = random_unit rng 2 in
  let rho = Mat.of_vec (Vec.tensor a b) in
  check_float ~eps:1e-9 "density agrees with product"
    (Swap_test.accept_prob_product a b)
    (Swap_test.accept_prob_density rho)

let test_swap_lemma14 () =
  (* Lemma 14: acceptance 1 - eps bounds the reduced-state distance *)
  let a = random_unit rng 4 and b = random_unit rng 4 in
  let eps = 1. -. Swap_test.accept_prob_product a b in
  let d = Distance.trace_distance (Mat.of_vec a) (Mat.of_vec b) in
  Alcotest.(check bool) "D <= 2 sqrt eps + eps" true
    (d <= (2. *. Float.sqrt eps) +. eps +. 1e-9)

(* --- permutation test --- *)

let test_perm_test_matches_swap () =
  let a = random_unit rng 2 and b = random_unit rng 2 in
  check_float ~eps:1e-9 "k=2 permutation test = SWAP test"
    (Swap_test.accept_prob_product a b)
    (Permutation_test.accept_prob_product [ a; b ])

let test_perm_test_identical () =
  let a = random_unit rng 4 in
  check_float ~eps:1e-9 "k copies accepted" 1.
    (Permutation_test.accept_prob_product [ a; a; a ])

let test_perm_test_product_vs_projector () =
  let states = List.init 3 (fun _ -> random_unit rng 2) in
  let joint = Vec.tensor_list states in
  check_float ~eps:1e-9 "product formula = projector"
    (Permutation_test.accept_prob_pure ~d:2 ~k:3 joint)
    (Permutation_test.accept_prob_product states)

let test_perm_test_density () =
  let states = List.init 3 (fun _ -> random_unit rng 2) in
  let rho = Mat.of_vec (Vec.tensor_list states) in
  check_float ~eps:1e-8 "density = product"
    (Permutation_test.accept_prob_product states)
    (Permutation_test.accept_prob_density ~d:2 ~k:3 rho)

let test_perm_test_lemma16 () =
  (* Lemma 16 on a random product state *)
  let states = List.init 3 (fun _ -> random_unit rng 2) in
  let eps = 1. -. Permutation_test.accept_prob_product states in
  let bound = Permutation_test.pairwise_distance_bound eps in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if i < j then begin
            let d = Distance.trace_distance (Mat.of_vec si) (Mat.of_vec sj) in
            Alcotest.(check bool) "pairwise distance bounded" true
              (d <= bound +. 1e-9)
          end)
        states)
    states

(* --- Pure register simulator --- *)

let test_pure_product_inner () =
  let lay = Pure.layout [ ("a", 1); ("b", 2) ] in
  let va = random_unit rng 2 and vb = random_unit rng 4 in
  let s = Pure.product lay [ ("a", va); ("b", vb) ] in
  check_float ~eps:1e-9 "norm" 1. (Pure.norm2 s);
  let t = Pure.product lay [ ("a", va); ("b", vb) ] in
  Alcotest.(check bool) "self inner = 1" true
    (Cx.is_close ~eps:1e-9 (Pure.inner s t) Cx.one)

let test_pure_swap_registers () =
  let lay = Pure.layout [ ("a", 2); ("b", 2) ] in
  let va = random_unit rng 4 and vb = random_unit rng 4 in
  let s = Pure.product lay [ ("a", va); ("b", vb) ] in
  let swapped = Pure.swap_registers s "a" "b" in
  let expected = Pure.product lay [ ("a", vb); ("b", va) ] in
  Alcotest.(check bool) "swap" true
    (Cx.is_close ~eps:1e-9 (Pure.inner expected swapped) Cx.one)

let test_pure_apply_on_middle () =
  (* apply X on a middle register *)
  let lay = Pure.layout [ ("a", 1); ("b", 1); ("c", 1) ] in
  let s = Pure.zero lay in
  let s = Pure.apply_on s [ "b" ] Gates.pauli_x in
  check_float ~eps:1e-9 "b flipped" 1. (Pure.prob_of_outcome s "b" 1);
  check_float ~eps:1e-9 "a unchanged" 1. (Pure.prob_of_outcome s "a" 0);
  check_float ~eps:1e-9 "c unchanged" 1. (Pure.prob_of_outcome s "c" 0)

let test_pure_controlled_swap () =
  let lay = Pure.layout [ ("c", 1); ("a", 1); ("b", 1) ] in
  let va = random_unit rng 2 and vb = random_unit rng 2 in
  (* control 0: no swap *)
  let s0 = Pure.product lay [ ("a", va); ("b", vb) ] in
  let s0' = Pure.controlled_swap s0 ~control:"c" "a" "b" in
  Alcotest.(check bool) "control 0 identity" true
    (Cx.is_close ~eps:1e-9 (Pure.inner s0 s0') Cx.one);
  (* control 1: swap *)
  let s1 =
    Pure.product lay [ ("c", Vec.basis 2 1); ("a", va); ("b", vb) ]
  in
  let s1' = Pure.controlled_swap s1 ~control:"c" "a" "b" in
  let expected =
    Pure.product lay [ ("c", Vec.basis 2 1); ("a", vb); ("b", va) ]
  in
  Alcotest.(check bool) "control 1 swaps" true
    (Cx.is_close ~eps:1e-9 (Pure.inner expected s1') Cx.one)

let test_pure_project_sym_prob () =
  let lay = Pure.layout [ ("a", 1); ("b", 1) ] in
  let va = random_unit rng 2 and vb = random_unit rng 2 in
  let s = Pure.product lay [ ("a", va); ("b", vb) ] in
  let projected = Pure.project_sym s [ "a"; "b" ] in
  check_float ~eps:1e-9 "projection norm = swap accept"
    (Swap_test.accept_prob_product va vb)
    (Pure.norm2 projected)

let test_pure_measure_distribution () =
  let lay = Pure.layout [ ("a", 1) ] in
  let v = Vec.of_array [| Cx.re 0.6; Cx.re 0.8 |] in
  let s = Pure.product lay [ ("a", v) ] in
  check_float ~eps:1e-9 "P(0)" 0.36 (Pure.prob_of_outcome s "a" 0);
  check_float ~eps:1e-9 "P(1)" 0.64 (Pure.prob_of_outcome s "a" 1);
  let st = Random.State.make [| 5 |] in
  let hits = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let outcome, _ = Pure.measure st s "a" in
    if outcome = 1 then incr hits
  done;
  Alcotest.(check bool) "sampled frequency near 0.64" true
    (Float.abs ((float_of_int !hits /. float_of_int trials) -. 0.64) < 0.05)

let test_pure_measure_collapse () =
  let lay = Pure.layout [ ("a", 1); ("b", 1) ] in
  (* entangle a and b into a Bell pair via H + CNOT *)
  let s = Pure.zero lay in
  let s = Pure.apply_on s [ "a" ] Gates.hadamard in
  let s = Pure.apply_on s [ "a"; "b" ] Gates.cnot in
  let st = Random.State.make [| 11 |] in
  let outcome, collapsed = Pure.measure st s "a" in
  check_float ~eps:1e-9 "b collapsed to same value" 1.
    (Pure.prob_of_outcome collapsed "b" outcome)

let test_pure_reduced_density () =
  let lay = Pure.layout [ ("a", 1); ("b", 1) ] in
  let s = Pure.zero lay in
  let s = Pure.apply_on s [ "a" ] Gates.hadamard in
  let s = Pure.apply_on s [ "a"; "b" ] Gates.cnot in
  let rho_a = Pure.reduced_density s [ "a" ] in
  (* Bell pair: reduced state is maximally mixed *)
  Alcotest.(check bool) "maximally mixed" true
    (Mat.equal ~eps:1e-9 rho_a
       (Mat.scale (Cx.re 0.5) (Mat.identity 2)))

(* --- POVM --- *)

let test_povm_validation () =
  Alcotest.(check bool) "not summing to I rejected" true
    (try
       ignore (Povm.make [ Mat.scale (Cx.re 0.5) (Mat.identity 2) ]);
       false
     with Invalid_argument _ -> true);
  let p = Povm.binary ~accept:(Mat.of_vec (Vec.basis 2 0)) in
  Alcotest.(check int) "binary outcomes" 2 (Povm.outcomes p)

let test_povm_probabilities () =
  let v = Vec.of_array [| Cx.re 0.6; Cx.re 0.8 |] in
  let p = Povm.projective [| Vec.basis 2 0; Vec.basis 2 1 |] in
  let probs = Povm.probabilities p (Mat.of_vec v) in
  check_float ~eps:1e-9 "P(0)" 0.36 probs.(0);
  check_float ~eps:1e-9 "P(1)" 0.64 probs.(1)

let test_povm_sample_collapse () =
  let st = Random.State.make [| 31 |] in
  let v = random_unit st 2 in
  let p = Povm.projective [| Vec.basis 2 0; Vec.basis 2 1 |] in
  let outcome, post = Povm.sample st p (Mat.of_vec v) in
  (* post-measurement state is the projector onto the outcome basis *)
  Alcotest.(check bool) "collapsed" true
    (Mat.equal ~eps:1e-7 post (Mat.of_vec (Vec.basis 2 outcome)))

let test_povm_naimark () =
  let st = Random.State.make [| 32 |] in
  (* a genuinely non-projective POVM: smeared basis measurement *)
  let e0 =
    Mat.add
      (Mat.scale (Cx.re 0.7) (Mat.of_vec (Vec.basis 2 0)))
      (Mat.scale (Cx.re 0.3) (Mat.of_vec (Vec.basis 2 1)))
  in
  let p = Povm.binary ~accept:e0 in
  let v = Povm.naimark p in
  Alcotest.(check bool) "isometry" true
    (Mat.equal ~eps:1e-8 (Mat.mul (Mat.adjoint v) v) (Mat.identity 2));
  let psi = random_unit st 2 in
  let dilated = Mat.apply v psi in
  (* environment statistics match the POVM *)
  let probs = Povm.probabilities p (Mat.of_vec psi) in
  let m = Povm.outcomes p in
  let env_prob i =
    let acc = ref 0. in
    for r = 0 to 1 do
      acc := !acc +. Cx.norm2 (Vec.get dilated ((r * m) + i))
    done;
    !acc
  in
  check_float ~eps:1e-8 "outcome 0" probs.(0) (env_prob 0);
  check_float ~eps:1e-8 "outcome 1" probs.(1) (env_prob 1)

let test_pure_random_circuit_preserves_norm () =
  (* random sequences of unitary register operations keep the global
     state normalized *)
  for seed = 0 to 4 do
    let st = Random.State.make [| seed; 0xc1c |] in
    let lay = Pure.layout [ ("a", 1); ("b", 1); ("c", 1) ] in
    let s = ref (Pure.product lay [ ("a", random_unit st 2) ]) in
    for _ = 1 to 10 do
      let reg = [ "a"; "b"; "c" ] in
      let name = List.nth reg (Random.State.int st 3) in
      (match Random.State.int st 4 with
      | 0 -> s := Pure.apply_on !s [ name ] Gates.hadamard
      | 1 -> s := Pure.apply_on !s [ name ] (Gates.phase 0.9)
      | 2 ->
          let other = List.nth reg (Random.State.int st 3) in
          if other <> name then s := Pure.swap_registers !s name other
      | _ ->
          let other = List.nth reg (Random.State.int st 3) in
          if other <> name then s := Pure.apply_on !s [ name; other ] Gates.cnot);
      check_float ~eps:1e-9 "norm preserved" 1. (Pure.norm2 !s)
    done
  done

let test_pure_reduced_density_trace () =
  let st = Random.State.make [| 0xc1d |] in
  let lay = Pure.layout [ ("a", 2); ("b", 1) ] in
  let s = Pure.product lay [ ("a", random_unit st 4); ("b", random_unit st 2) ] in
  let s = Pure.apply_on s [ "a"; "b" ] (Mat.tensor (Mat.identity 4) Gates.hadamard) in
  let rho = Pure.reduced_density s [ "a" ] in
  check_float ~eps:1e-9 "unit trace" 1. (Mat.trace rho).Complex.re;
  Alcotest.(check bool) "hermitian" true (Mat.is_hermitian ~eps:1e-8 rho)

(* --- Density --- *)

let test_density_partial_trace_product () =
  let a = random_unit rng 2 and b = random_unit rng 3 in
  let rho =
    Density.tensor
      (Density.of_pure ~dims:[| 2 |] a)
      (Density.of_pure ~dims:[| 3 |] b)
  in
  let ra = Density.partial_trace rho ~keep:[ 0 ] in
  Alcotest.(check bool) "partial trace of product" true
    (Mat.equal ~eps:1e-9 (Density.mat ra) (Mat.of_vec a));
  check_float ~eps:1e-9 "trace preserved" 1. (Density.trace ra)

let test_density_is_density () =
  let a = random_unit rng 4 in
  Alcotest.(check bool) "pure state is density" true
    (Density.is_density (Density.of_pure ~dims:[| 4 |] a));
  Alcotest.(check bool) "maximally mixed is density" true
    (Density.is_density (Density.maximally_mixed ~dims:[| 2; 2 |]))

let test_density_mix () =
  let a = Density.of_pure ~dims:[| 2 |] (Vec.basis 2 0) in
  let b = Density.of_pure ~dims:[| 2 |] (Vec.basis 2 1) in
  let m = Density.mix [ (0.5, a); (0.5, b) ] in
  Alcotest.(check bool) "mix = maximally mixed" true
    (Mat.equal ~eps:1e-9 (Density.mat m)
       (Density.mat (Density.maximally_mixed ~dims:[| 2 |])))

(* --- Distance --- *)

let test_distance_pure_formula () =
  let a = random_unit rng 4 and b = random_unit rng 4 in
  let d_mat = Distance.trace_distance (Mat.of_vec a) (Mat.of_vec b) in
  check_float ~eps:1e-7 "pure formula" (Distance.trace_distance_pure a b) d_mat

let test_fidelity_pure () =
  let a = random_unit rng 4 and b = random_unit rng 4 in
  let f = Distance.fidelity (Mat.of_vec a) (Mat.of_vec b) in
  check_float ~eps:1e-6 "pure fidelity" (Distance.fidelity_pure a b) f

let test_fuchs_van_de_graaf () =
  for seed = 0 to 4 do
    let st = Random.State.make [| seed; 3 |] in
    let a = random_unit st 3 and b = random_unit st 3 in
    let lo, d, hi = Distance.fuchs_van_de_graaf (Mat.of_vec a) (Mat.of_vec b) in
    Alcotest.(check bool) "1 - F <= D" true (lo <= d +. 1e-7);
    Alcotest.(check bool) "D <= sqrt (1 - F^2)" true (d <= hi +. 1e-7)
  done

let test_trace_distance_metric () =
  let a = random_unit rng 3 and b = random_unit rng 3 and c = random_unit rng 3 in
  let d = Distance.trace_distance in
  let ma = Mat.of_vec a and mb = Mat.of_vec b and mc = Mat.of_vec c in
  check_float ~eps:1e-8 "d(a,a) = 0" 0. (d ma ma);
  check_float ~eps:1e-8 "symmetry" (d ma mb) (d mb ma);
  Alcotest.(check bool) "triangle" true (d ma mc <= d ma mb +. d mb mc +. 1e-7)

(* --- register errors --- *)

let test_unknown_register_message () =
  let lay = Pure.layout [ ("L", 1); ("R", 1) ] in
  let s = Pure.zero lay in
  Alcotest.check_raises "names the register and the layout"
    (Invalid_argument "Pure: unknown register \"Q\" (layout has \"L\", \"R\")")
    (fun () -> ignore (Pure.apply_on s [ "Q" ] Gates.hadamard))

let () =
  Alcotest.run "quantum"
    [
      ( "gates",
        [
          Alcotest.test_case "unitarity" `Quick test_gates_unitary;
          Alcotest.test_case "hadamard" `Quick test_hadamard_plus;
          Alcotest.test_case "cswap action" `Quick test_cswap_action;
        ] );
      ( "symmetric",
        [
          Alcotest.test_case "permutation count" `Quick test_permutations_count;
          Alcotest.test_case "u_pi unitary" `Quick test_u_pi_unitary;
          Alcotest.test_case "u_pi composition" `Quick test_u_pi_composition;
          Alcotest.test_case "projector" `Quick test_projector_is_projector;
          Alcotest.test_case "subspace dimension" `Quick
            test_symmetric_subspace_dimension;
          Alcotest.test_case "apply_projector" `Quick test_apply_projector_agrees;
        ] );
      ( "swap_test",
        [
          Alcotest.test_case "product formula" `Quick test_swap_product_formula;
          Alcotest.test_case "identical accept" `Quick test_swap_identical_accepts;
          Alcotest.test_case "entangled extremes" `Quick test_swap_entangled_state;
          Alcotest.test_case "density" `Quick test_swap_density;
          Alcotest.test_case "lemma 14 bound" `Quick test_swap_lemma14;
        ] );
      ( "permutation_test",
        [
          Alcotest.test_case "k=2 is SWAP" `Quick test_perm_test_matches_swap;
          Alcotest.test_case "identical accept" `Quick test_perm_test_identical;
          Alcotest.test_case "product vs projector" `Quick
            test_perm_test_product_vs_projector;
          Alcotest.test_case "density" `Quick test_perm_test_density;
          Alcotest.test_case "lemma 16 bound" `Quick test_perm_test_lemma16;
        ] );
      ( "pure",
        [
          Alcotest.test_case "product & inner" `Quick test_pure_product_inner;
          Alcotest.test_case "swap registers" `Quick test_pure_swap_registers;
          Alcotest.test_case "apply_on middle" `Quick test_pure_apply_on_middle;
          Alcotest.test_case "controlled swap" `Quick test_pure_controlled_swap;
          Alcotest.test_case "project_sym norm" `Quick test_pure_project_sym_prob;
          Alcotest.test_case "measure distribution" `Quick
            test_pure_measure_distribution;
          Alcotest.test_case "measure collapse" `Quick test_pure_measure_collapse;
          Alcotest.test_case "reduced density" `Quick test_pure_reduced_density;
          Alcotest.test_case "random circuit norm" `Quick
            test_pure_random_circuit_preserves_norm;
          Alcotest.test_case "reduced density trace" `Quick
            test_pure_reduced_density_trace;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown register" `Quick
            test_unknown_register_message;
        ] );
      ( "povm",
        [
          Alcotest.test_case "validation" `Quick test_povm_validation;
          Alcotest.test_case "probabilities" `Quick test_povm_probabilities;
          Alcotest.test_case "sample collapse" `Quick test_povm_sample_collapse;
          Alcotest.test_case "naimark dilation" `Quick test_povm_naimark;
        ] );
      ( "density",
        [
          Alcotest.test_case "partial trace product" `Quick
            test_density_partial_trace_product;
          Alcotest.test_case "is_density" `Quick test_density_is_density;
          Alcotest.test_case "mix" `Quick test_density_mix;
        ] );
      ( "distance",
        [
          Alcotest.test_case "pure trace distance" `Quick test_distance_pure_formula;
          Alcotest.test_case "pure fidelity" `Quick test_fidelity_pure;
          Alcotest.test_case "fuchs-van de graaf" `Quick test_fuchs_van_de_graaf;
          Alcotest.test_case "metric axioms" `Quick test_trace_distance_metric;
        ] );
    ]
