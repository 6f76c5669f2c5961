(* Unit and property tests for the linear-algebra substrate. *)

open Qdp_linalg

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let rng = Random.State.make [| 0xacce5 |]

let gaussian st =
  let u1 = Float.max 1e-12 (Random.State.float st 1.) in
  let u2 = Random.State.float st 1. in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let random_vec st n =
  Vec.init n (fun _ -> Cx.make (gaussian st) (gaussian st))

let random_unit st n = Vec.normalize (random_vec st n)

let random_hermitian st n =
  let a = Mat.init n n (fun _ _ -> Cx.make (gaussian st) (gaussian st)) in
  Mat.scale (Cx.re 0.5) (Mat.add a (Mat.adjoint a))

(* --- Cx --- *)

let test_cx_basics () =
  Alcotest.(check bool) "i^2 = -1" true (Cx.is_close (Cx.mul Cx.i Cx.i) (Cx.re (-1.)));
  check_float "norm2" 25. (Cx.norm2 (Cx.make 3. 4.));
  Alcotest.(check bool) "exp_i pi = -1" true
    (Cx.is_close ~eps:1e-12 (Cx.exp_i Float.pi) (Cx.re (-1.)));
  Alcotest.(check bool) "conj" true
    (Cx.is_close (Cx.conj (Cx.make 1. 2.)) (Cx.make 1. (-2.)))

(* --- Vec --- *)

let test_vec_basis () =
  let v = Vec.basis 4 2 in
  check_float "norm of basis" 1. (Vec.norm v);
  Alcotest.(check bool) "entry" true (Cx.is_close (Vec.get v 2) Cx.one);
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 4 4))

let test_vec_dot_conjugate_symmetry () =
  let a = random_vec rng 8 and b = random_vec rng 8 in
  let ab = Vec.dot a b and ba = Vec.dot b a in
  Alcotest.(check bool) "<a|b> = conj <b|a>" true (Cx.is_close ab (Cx.conj ba))

let test_vec_dot_linear () =
  let a = random_vec rng 6 and b = random_vec rng 6 and c = random_vec rng 6 in
  let z = Cx.make 0.3 (-0.7) in
  let lhs = Vec.dot a (Vec.add (Vec.scale z b) c) in
  let rhs = Cx.add (Cx.mul z (Vec.dot a b)) (Vec.dot a c) in
  Alcotest.(check bool) "linearity in second argument" true
    (Cx.is_close ~eps:1e-8 lhs rhs)

let test_vec_tensor () =
  let a = Vec.of_array [| Cx.re 1.; Cx.re 2. |] in
  let b = Vec.of_array [| Cx.re 3.; Cx.re 4.; Cx.re 5. |] in
  let t = Vec.tensor a b in
  Alcotest.(check int) "dim" 6 (Vec.dim t);
  Alcotest.(check bool) "entry (1,2)" true
    (Cx.is_close (Vec.get t 5) (Cx.re 10.));
  (* norm multiplicativity *)
  check_float ~eps:1e-9 "norm multiplicative" (Vec.norm a *. Vec.norm b)
    (Vec.norm t)

let test_vec_axpy () =
  let x = random_vec rng 5 in
  let y = random_vec rng 5 in
  let y' = Vec.copy y in
  let alpha = Cx.make 2. (-1.) in
  Vec.axpy ~alpha x y';
  Alcotest.(check bool) "axpy = add scale" true
    (Vec.equal ~eps:1e-9 y' (Vec.add y (Vec.scale alpha x)))

let test_vec_normalize_zero () =
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize (Vec.create 3)))

(* --- Mat --- *)

let test_mat_mul_identity () =
  let m = random_hermitian rng 5 in
  Alcotest.(check bool) "I m = m" true (Mat.equal (Mat.mul (Mat.identity 5) m) m);
  Alcotest.(check bool) "m I = m" true (Mat.equal (Mat.mul m (Mat.identity 5)) m)

let test_mat_adjoint_product () =
  let a = Mat.init 3 4 (fun _ _ -> Cx.make (gaussian rng) (gaussian rng)) in
  let b = Mat.init 4 2 (fun _ _ -> Cx.make (gaussian rng) (gaussian rng)) in
  let lhs = Mat.adjoint (Mat.mul a b) in
  let rhs = Mat.mul (Mat.adjoint b) (Mat.adjoint a) in
  Alcotest.(check bool) "(ab)^† = b^† a^†" true (Mat.equal ~eps:1e-8 lhs rhs)

let test_mat_trace_cyclic () =
  let a = random_hermitian rng 4 and b = random_hermitian rng 4 in
  let t1 = Mat.trace (Mat.mul a b) and t2 = Mat.trace (Mat.mul b a) in
  Alcotest.(check bool) "tr ab = tr ba" true (Cx.is_close ~eps:1e-8 t1 t2)

let test_mat_tensor_mixed_product () =
  let a = random_hermitian rng 2 and b = random_hermitian rng 3 in
  let c = random_hermitian rng 2 and d = random_hermitian rng 3 in
  let lhs = Mat.mul (Mat.tensor a b) (Mat.tensor c d) in
  let rhs = Mat.tensor (Mat.mul a c) (Mat.mul b d) in
  Alcotest.(check bool) "(a x b)(c x d) = ac x bd" true (Mat.equal ~eps:1e-7 lhs rhs)

let test_mat_swap_gate () =
  let s = Mat.swap_gate 3 in
  Alcotest.(check bool) "unitary" true (Mat.is_unitary s);
  Alcotest.(check bool) "involution" true
    (Mat.equal (Mat.mul s s) (Mat.identity 9));
  let a = random_unit rng 3 and b = random_unit rng 3 in
  let swapped = Mat.apply s (Vec.tensor a b) in
  Alcotest.(check bool) "swaps factors" true
    (Vec.equal ~eps:1e-9 swapped (Vec.tensor b a))

let test_mat_apply_vs_mul () =
  let m = random_hermitian rng 6 in
  let v = random_vec rng 6 in
  let via_apply = Mat.apply m v in
  let via_outer =
    (* m |v> read out of m (|v><e0|) applied to e0 *)
    Mat.mul m (Mat.outer v (Vec.basis 1 0))
  in
  let col = Vec.init 6 (fun i -> Mat.get via_outer i 0) in
  Alcotest.(check bool) "apply matches mul" true (Vec.equal ~eps:1e-8 via_apply col)

(* --- Eig --- *)

let test_eig_symmetric_reconstruct () =
  let n = 6 in
  let a =
    Array.init n (fun _ -> Array.init n (fun _ -> gaussian rng))
  in
  let sym = Array.init n (fun i -> Array.init n (fun j -> a.(i).(j) +. a.(j).(i))) in
  let evals, evecs = Eig.symmetric sym in
  (* eigenvector equations *)
  for k = 0 to n - 1 do
    let v = evecs.(k) in
    for i = 0 to n - 1 do
      let av = ref 0. in
      for j = 0 to n - 1 do
        av := !av +. (sym.(i).(j) *. v.(j))
      done;
      check_float ~eps:1e-7 "A v = lambda v" (evals.(k) *. v.(i)) !av
    done
  done;
  (* ascending order *)
  for k = 0 to n - 2 do
    Alcotest.(check bool) "sorted" true (evals.(k) <= evals.(k + 1) +. 1e-12)
  done

let test_eig_hermitian_reconstruct () =
  let n = 5 in
  let h = random_hermitian rng n in
  let evals, v = Eig.hermitian h in
  Alcotest.(check bool) "V unitary" true (Mat.is_unitary ~eps:1e-6 v);
  let d = Mat.init n n (fun i j -> if i = j then Cx.re evals.(i) else Cx.zero) in
  let recon = Mat.mul (Mat.mul v d) (Mat.adjoint v) in
  Alcotest.(check bool) "V D V^† = H" true (Mat.equal ~eps:1e-6 recon h)

let test_eig_trace_matches () =
  let h = random_hermitian rng 7 in
  let evals = Eig.eigenvalues_hermitian h in
  let sum = Array.fold_left ( +. ) 0. evals in
  check_float ~eps:1e-7 "sum eigenvalues = trace" (Mat.trace h).Complex.re sum

let test_sqrt_psd () =
  let n = 4 in
  let a = random_hermitian rng n in
  let psd = Mat.mul a (Mat.adjoint a) in
  let s = Eig.sqrt_psd psd in
  Alcotest.(check bool) "sqrt^2 = psd" true (Mat.equal ~eps:1e-6 (Mat.mul s s) psd);
  Alcotest.(check bool) "sqrt hermitian" true (Mat.is_hermitian ~eps:1e-7 s)

(* Eig.top_hermitian (Lanczos) against the Jacobi oracle: same top
   eigenvalue, small residual, unit vector. *)
let top_agrees ?(name = "top_hermitian") g =
  let n = Mat.rows g in
  let lambda, x = Eig.top_hermitian g in
  let oracle = (Eig.eigenvalues_hermitian g).(n - 1) in
  let gx = Mat.apply g x in
  Vec.axpy ~alpha:(Cx.re (-.lambda)) x gx;
  check_float ~eps:1e-9 (name ^ ": eigenvalue") oracle lambda;
  check_float ~eps:1e-12 (name ^ ": unit vector") 1. (Vec.norm x);
  let bound = 1e-9 *. Float.max 1. (Mat.frobenius_norm g) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: residual %.3g <= %.3g" name (Vec.norm gx) bound)
    true
    (Vec.norm gx <= bound)

let test_top_degenerate () =
  (* U diag U^dagger with the maximum repeated three times *)
  let n = 9 in
  let _, u = Eig.hermitian (random_hermitian rng n) in
  let spec = [| 2.; 2.; 2.; 1.5; 0.3; 0.; -0.4; -1.; -2. |] in
  let d = Mat.init n n (fun i j -> if i = j then Cx.re spec.(i) else Cx.zero) in
  let g = Mat.mul (Mat.mul u d) (Mat.adjoint u) in
  let g = Mat.scale (Cx.re 0.5) (Mat.add g (Mat.adjoint g)) in
  top_agrees ~name:"degenerate top" g

let test_top_rank_deficient () =
  let v = Mat.init 3 12 (fun _ _ -> Cx.make (gaussian rng) (gaussian rng)) in
  top_agrees ~name:"V^dagger V, rank 3" (Mat.mul (Mat.adjoint v) v)

let test_top_zero_and_scalar () =
  let lambda, x = Eig.top_hermitian (Mat.create 5 5) in
  check_float "zero matrix: eigenvalue" 0. lambda;
  check_float "zero matrix: unit vector" 1. (Vec.norm x);
  let lambda, x = Eig.top_hermitian (Mat.init 1 1 (fun _ _ -> Cx.re 2.5)) in
  check_float "1x1: eigenvalue" 2.5 lambda;
  check_float "1x1: unit vector" 1. (Vec.norm x);
  Alcotest.check_raises "not square"
    (Invalid_argument "Eig.top_hermitian: not square") (fun () ->
      ignore (Eig.top_hermitian (Mat.create 2 3)))

let test_top_deterministic () =
  let g = random_hermitian rng 40 in
  let l1, x1 = Eig.top_hermitian g and l2, x2 = Eig.top_hermitian g in
  Alcotest.(check bool) "eigenvalue bit-equal" true
    (Int64.bits_of_float l1 = Int64.bits_of_float l2);
  Alcotest.(check bool) "vector bit-equal" true
    (Vec.raw_re x1 = Vec.raw_re x2 && Vec.raw_im x1 = Vec.raw_im x2)

(* --- Subspace --- *)

let test_subspace_projection_idempotent () =
  let s = Subspace.random rng ~ambient:10 ~dim:3 in
  let v = Array.init 10 (fun _ -> gaussian rng) in
  let p = Subspace.project s v in
  let pp = Subspace.project s p in
  Array.iteri (fun i x -> check_float ~eps:1e-9 "P^2 = P" x pp.(i)) p

let test_subspace_distance_self () =
  let s = Subspace.random rng ~ambient:8 ~dim:2 in
  check_float ~eps:1e-6 "distance to self" 0. (Subspace.distance s s)

let test_subspace_distance_orthogonal () =
  let e i =
    let v = Array.make 6 0. in
    v.(i) <- 1.;
    v
  in
  let a = Subspace.of_spanning [ e 0; e 1 ] in
  let b = Subspace.of_spanning [ e 2; e 3 ] in
  check_float ~eps:1e-9 "orthogonal distance sqrt 2" (Float.sqrt 2.)
    (Subspace.distance a b)

let test_subspace_shared_direction () =
  let shared = Array.init 12 (fun _ -> gaussian rng) in
  let a = Subspace.of_spanning [ shared; Array.init 12 (fun _ -> gaussian rng) ] in
  let b = Subspace.of_spanning [ shared; Array.init 12 (fun _ -> gaussian rng) ] in
  check_float ~eps:1e-6 "common vector => distance 0" 0. (Subspace.distance a b)

let test_subspace_closest_vectors () =
  let a = Subspace.random rng ~ambient:9 ~dim:2 in
  let b = Subspace.random rng ~ambient:9 ~dim:2 in
  let v1, v2 = Subspace.closest_unit_vectors a b in
  Alcotest.(check bool) "v1 in a" true (Subspace.contains ~eps:1e-6 a v1);
  Alcotest.(check bool) "v2 in b" true (Subspace.contains ~eps:1e-6 b v2);
  let d = Subspace.distance a b in
  let norm_diff =
    Float.sqrt
      (Array.fold_left ( +. ) 0.
         (Array.mapi (fun i x -> (x -. v2.(i)) ** 2.) v1))
  in
  check_float ~eps:1e-5 "||v1 - v2|| = Delta" d norm_diff

(* --- qcheck properties --- *)

let prop_norm_scale =
  QCheck.Test.make ~name:"norm (z v) = |z| norm v" ~count:50
    QCheck.(triple (float_bound_exclusive 1.) (float_bound_exclusive 1.) small_nat)
    (fun (re, im, n) ->
      let n = max 1 (n mod 16) in
      let st = Random.State.make [| n; int_of_float (re *. 1e6) |] in
      let v = random_vec st n in
      let z = Cx.make re im in
      Float.abs (Vec.norm (Vec.scale z v) -. (Cx.abs z *. Vec.norm v)) < 1e-8)

let prop_cauchy_schwarz =
  QCheck.Test.make ~name:"|<a|b>| <= |a| |b|" ~count:100 QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed; 77 |] in
      let n = 1 + (seed mod 12) in
      let a = random_vec st n and b = random_vec st n in
      Cx.abs (Vec.dot a b) <= (Vec.norm a *. Vec.norm b) +. 1e-9)

let prop_trace_tensor =
  QCheck.Test.make ~name:"tr (a x b) = tr a * tr b" ~count:40 QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed; 78 |] in
      let a = random_hermitian st 3 and b = random_hermitian st 2 in
      let lhs = Mat.trace (Mat.tensor a b) in
      let rhs = Cx.mul (Mat.trace a) (Mat.trace b) in
      Cx.is_close ~eps:1e-8 lhs rhs)

let prop_top_hermitian =
  QCheck.Test.make ~name:"top_hermitian = Jacobi top, dims 1..64" ~count:40
    QCheck.(pair (int_range 1 64) small_nat)
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed; 79 |] in
      top_agrees ~name:(Printf.sprintf "n=%d" n) (random_hermitian st n);
      true)

(* top_hermitian is top_operator on the matrix's action, bit for bit:
   the dense callers (Sep_sim's optimisers) see the same floats. *)
let prop_top_operator_bit_equal =
  QCheck.Test.make ~name:"top_operator bit-equals matrix" ~count:20
    QCheck.(pair (int_range 1 32) small_nat)
    (fun (n, seed) ->
      let st = Random.State.make [| n; seed; 80 |] in
      let g = random_hermitian st n in
      let l1, x1 = Eig.top_hermitian g in
      let l2, x2 =
        Eig.top_operator ~dim:n ~scale:(Mat.frobenius_norm g) (Mat.apply_into g)
      in
      Int64.bits_of_float l1 = Int64.bits_of_float l2
      && Vec.raw_re x1 = Vec.raw_re x2
      && Vec.raw_im x1 = Vec.raw_im x2)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_norm_scale;
      prop_cauchy_schwarz;
      prop_trace_tensor;
      prop_top_hermitian;
      prop_top_operator_bit_equal;
    ]

let () =
  Alcotest.run "linalg"
    [
      ( "cx",
        [ Alcotest.test_case "basics" `Quick test_cx_basics ] );
      ( "vec",
        [
          Alcotest.test_case "basis" `Quick test_vec_basis;
          Alcotest.test_case "dot conjugate symmetry" `Quick
            test_vec_dot_conjugate_symmetry;
          Alcotest.test_case "dot linearity" `Quick test_vec_dot_linear;
          Alcotest.test_case "tensor" `Quick test_vec_tensor;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize zero" `Quick test_vec_normalize_zero;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_mul_identity;
          Alcotest.test_case "adjoint of product" `Quick test_mat_adjoint_product;
          Alcotest.test_case "trace cyclic" `Quick test_mat_trace_cyclic;
          Alcotest.test_case "tensor mixed product" `Quick
            test_mat_tensor_mixed_product;
          Alcotest.test_case "swap gate" `Quick test_mat_swap_gate;
          Alcotest.test_case "apply vs mul" `Quick test_mat_apply_vs_mul;
        ] );
      ( "eig",
        [
          Alcotest.test_case "symmetric reconstruct" `Quick
            test_eig_symmetric_reconstruct;
          Alcotest.test_case "hermitian reconstruct" `Quick
            test_eig_hermitian_reconstruct;
          Alcotest.test_case "trace matches" `Quick test_eig_trace_matches;
          Alcotest.test_case "sqrt psd" `Quick test_sqrt_psd;
          Alcotest.test_case "top degenerate" `Quick test_top_degenerate;
          Alcotest.test_case "top rank-deficient" `Quick
            test_top_rank_deficient;
          Alcotest.test_case "top zero and 1x1" `Quick test_top_zero_and_scalar;
          Alcotest.test_case "top deterministic" `Quick test_top_deterministic;
        ] );
      ( "subspace",
        [
          Alcotest.test_case "projection idempotent" `Quick
            test_subspace_projection_idempotent;
          Alcotest.test_case "distance to self" `Quick test_subspace_distance_self;
          Alcotest.test_case "orthogonal distance" `Quick
            test_subspace_distance_orthogonal;
          Alcotest.test_case "shared direction" `Quick
            test_subspace_shared_direction;
          Alcotest.test_case "closest vectors" `Quick test_subspace_closest_vectors;
        ] );
      ("properties", qcheck_cases);
    ]
