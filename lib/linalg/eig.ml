(* Cyclic Jacobi eigensolver.  The working representation keeps the
   matrix [a] (mutated toward diagonal form) and the accumulated
   rotation matrix [v] with eigenvectors as rows of [v] at the end. *)

let off_diagonal_norm a n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      s := !s +. (2. *. a.(i).(j) *. a.(i).(j))
    done
  done;
  Float.sqrt !s

let jacobi_rotate a v n p q =
  let apq = a.(p).(q) in
  if Float.abs apq > 0. then begin
    let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
    let t =
      let sign = if theta >= 0. then 1. else -1. in
      sign /. (Float.abs theta +. Float.sqrt ((theta *. theta) +. 1.))
    in
    let c = 1. /. Float.sqrt ((t *. t) +. 1.) in
    let s = t *. c in
    let tau = s /. (1. +. c) in
    let app = a.(p).(p) and aqq = a.(q).(q) in
    a.(p).(p) <- app -. (t *. apq);
    a.(q).(q) <- aqq +. (t *. apq);
    a.(p).(q) <- 0.;
    a.(q).(p) <- 0.;
    for k = 0 to n - 1 do
      if k <> p && k <> q then begin
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- akp -. (s *. (akq +. (tau *. akp)));
        a.(p).(k) <- a.(k).(p);
        a.(k).(q) <- akq +. (s *. (akp -. (tau *. akq)));
        a.(q).(k) <- a.(k).(q)
      end
    done;
    for k = 0 to n - 1 do
      let vpk = v.(p).(k) and vqk = v.(q).(k) in
      v.(p).(k) <- vpk -. (s *. (vqk +. (tau *. vpk)));
      v.(q).(k) <- vqk +. (s *. (vpk -. (tau *. vqk)))
    done
  end

let symmetric_seconds = Qdp_obs.Metrics.histogram "kernel.eig_symmetric.seconds"
let hermitian_seconds = Qdp_obs.Metrics.histogram "kernel.eig_hermitian.seconds"
let top_hermitian_seconds =
  Qdp_obs.Metrics.histogram "kernel.eig_top_hermitian.seconds"

let symmetric a0 =
  Qdp_obs.Metrics.time symmetric_seconds @@ fun () ->
  let n = Array.length a0 in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Eig.symmetric: not square")
    a0;
  let a = Array.map Array.copy a0 in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)) in
  let tol = 1e-13 *. Float.max 1. (off_diagonal_norm a n) in
  let max_sweeps = 100 in
  let sweep = ref 0 in
  while off_diagonal_norm a n > tol && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        jacobi_rotate a v n p q
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let evals = Array.map (fun i -> a.(i).(i)) order in
  let evecs = Array.map (fun i -> Array.copy v.(i)) order in
  (evals, evecs)

(* Hermitian H = A + iB embeds in the real symmetric [[A, -B]; [B, A]];
   every eigenvalue of H appears twice, with real eigenvectors (u; v)
   and (-v; u) both mapping to the complex eigenvector u + iv.  We
   recover an orthonormal complex basis by greedy Gram-Schmidt over the
   embedded eigenvectors in spectral order. *)
let hermitian m =
  Qdp_obs.Metrics.time hermitian_seconds @@ fun () ->
  let n = Mat.rows m in
  if n <> Mat.cols m then invalid_arg "Eig.hermitian: not square";
  let big =
    Array.init (2 * n) (fun i ->
        Array.init (2 * n) (fun j ->
            let z i' j' = Mat.get m i' j' in
            if i < n && j < n then (z i j).Complex.re
            else if i < n then -.(z i (j - n)).Complex.im
            else if j < n then (z (i - n) j).Complex.im
            else (z (i - n) (j - n)).Complex.re))
  in
  let evals2, evecs2 = symmetric big in
  let accepted = Array.make n (Vec.create 0) in
  let accepted_vals = Array.make n 0. in
  let count = ref 0 in
  let k = ref 0 in
  while !count < n && !k < 2 * n do
    let row = evecs2.(!k) in
    let cand = Vec.init n (fun j -> { Complex.re = row.(j); im = row.(n + j) }) in
    let resid = Vec.copy cand in
    for a = 0 to !count - 1 do
      let u = accepted.(a) in
      let c = Vec.dot u resid in
      Vec.axpy ~alpha:(Cx.neg c) u resid
    done;
    if Vec.norm resid > 1e-7 then begin
      accepted.(!count) <- Vec.normalize resid;
      accepted_vals.(!count) <- evals2.(!k);
      incr count
    end;
    incr k
  done;
  if !count < n then failwith "Eig.hermitian: failed to extract a full eigenbasis";
  let v = Mat.init n n (fun i j -> Vec.get accepted.(j) i) in
  (accepted_vals, v)

(* A dense start vector from a fixed seed: the result is deterministic
   and the start cannot be orthogonal to a structured top eigenspace. *)
let lanczos_start n =
  let st = Random.State.make [| 0x1a9c05 |] in
  let u () = Random.State.float st 2. -. 1. in
  Vec.normalize (Vec.init n (fun _ -> Cx.make (u ()) (u ())))

(* Lanczos with full reorthogonalisation for the top eigenpair of the
   Hermitian operator [apply] on dimension [n].  Each step
   orthogonalises [A q_k] against the whole basis twice, solves the
   small real tridiagonal Ritz problem with [symmetric], and stops once
   the Ritz residual [|beta_k s_k|] is at most [1e-12 scale] -- which
   also covers breakdown (beta = 0, the zero operator included) -- or
   when the basis spans the space. *)
let top_operator ~dim:n ~scale apply =
  if n <= 0 then invalid_arg "Eig.top_operator: empty operator";
  let tol = 1e-12 *. scale in
  let q = Array.make n (Vec.create 0) in
  let alpha = Array.make n 0. and beta = Array.make n 0. in
  let w = Vec.create n in
  q.(0) <- lanczos_start n;
  let rec step k =
    apply q.(k) ~dst:w;
    alpha.(k) <- (Vec.dot q.(k) w).Complex.re;
    for _ = 1 to 2 do
      for j = 0 to k do
        Vec.axpy ~alpha:(Cx.neg (Vec.dot q.(j) w)) q.(j) w
      done
    done;
    beta.(k) <- Vec.norm w;
    let m = k + 1 in
    let t =
      Array.init m (fun i ->
          Array.init m (fun j ->
              if i = j then alpha.(i)
              else if j = i + 1 then beta.(i)
              else if i = j + 1 then beta.(j)
              else 0.))
    in
    let evals, evecs = symmetric t in
    let s = evecs.(m - 1) in
    if beta.(k) *. Float.abs s.(k) <= tol || m = n then (evals.(m - 1), s)
    else begin
      q.(k + 1) <- Vec.scale (Cx.re (1. /. beta.(k))) w;
      step (k + 1)
    end
  in
  let theta, s = step 0 in
  let x = Vec.create n in
  Array.iteri (fun j sj -> Vec.axpy ~alpha:(Cx.re sj) q.(j) x) s;
  (theta, Vec.normalize x)

let top_hermitian g =
  Qdp_obs.Metrics.time top_hermitian_seconds @@ fun () ->
  let n = Mat.rows g in
  if n <> Mat.cols g then invalid_arg "Eig.top_hermitian: not square";
  if n = 0 then invalid_arg "Eig.top_hermitian: empty matrix";
  top_operator ~dim:n ~scale:(Mat.frobenius_norm g) (Mat.apply_into g)

let eigenvalues_hermitian m = fst (hermitian m)

let func_hermitian f m =
  let evals, v = hermitian m in
  let n = Mat.rows m in
  let d =
    Mat.init n n (fun i j -> if i = j then Cx.re (f evals.(i)) else Cx.zero)
  in
  Mat.mul (Mat.mul v d) (Mat.adjoint v)

let sqrt_psd m = func_hermitian (fun x -> Float.sqrt (Float.max 0. x)) m
