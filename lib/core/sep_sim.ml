open Qdp_linalg

type instance = { d : int; left : Vec.t; pairs : Mat.t array; final : Mat.t }

let swap_projector d =
  Mat.scale (Cx.re 0.5) (Mat.add (Mat.identity (d * d)) (Mat.swap_gate d))

(* symmetrization channel on a pair state *)
let symmetrize d rho =
  let s = Mat.swap_gate d in
  Mat.scale (Cx.re 0.5) (Mat.add rho (Mat.mul (Mat.mul s rho) s))

let check inst =
  let d = inst.d in
  if Vec.dim inst.left <> d then invalid_arg "Sep_sim: left dimension";
  if Mat.rows inst.final <> d || Mat.cols inst.final <> d then
    invalid_arg "Sep_sim: final dimension";
  Array.iter
    (fun rho ->
      if Mat.rows rho <> d * d || Mat.cols rho <> d * d then
        invalid_arg "Sep_sim: pair dimension")
    inst.pairs

(* The shared contraction of the node test against a boundary operator:
   C[k, k'] = sum_{a a'} Pi[(a k),(a' k')] E[a', a].  Every kernel
   below factors through it, which drops the naive d^6 nests to two
   d^4 passes over unboxed float arrays. *)
let pi_contract d pi e =
  let pr = Mat.raw_re pi and pi_ = Mat.raw_im pi in
  let er = Mat.raw_re e and ei = Mat.raw_im e in
  let dd = d * d in
  let c = Mat.create d d in
  let cr = Mat.raw_re c and ci = Mat.raw_im c in
  for k = 0 to d - 1 do
    for k' = 0 to d - 1 do
      let accr = ref 0. and acci = ref 0. in
      for a = 0 to d - 1 do
        let row = ((((a * d) + k) * dd) + k') in
        for a' = 0 to d - 1 do
          let p = row + (a' * d) in
          let pre = pr.{p} and pim = pi_.{p} in
          if pre <> 0. || pim <> 0. then begin
            let q = (a' * d) + a in
            let ere = er.{q} and eim = ei.{q} in
            accr := !accr +. ((pre *. ere) -. (pim *. eim));
            acci := !acci +. ((pre *. eim) +. (pim *. ere))
          end
        done
      done;
      cr.{(k * d) + k'} <- !accr;
      ci.{(k * d) + k'} <- !acci
    done
  done;
  c

(* Forward contraction step: given the boundary operator E on the
   arriving register and the node's (symmetrized) pair state rho on
   (kept, sent), produce the new boundary on the sent register:
   E'[s, s''] = sum_{k k'} C[k, k'] rho[(k' s),(k s'')]
   with C = pi_contract d pi e. *)
let forward_step d pi e rho =
  let c = pi_contract d pi e in
  let cr = Mat.raw_re c and ci = Mat.raw_im c in
  let rr = Mat.raw_re rho and ri = Mat.raw_im rho in
  let dd = d * d in
  let out = Mat.create d d in
  let outr = Mat.raw_re out and outi = Mat.raw_im out in
  for s = 0 to d - 1 do
    for s'' = 0 to d - 1 do
      let accr = ref 0. and acci = ref 0. in
      for k = 0 to d - 1 do
        for k' = 0 to d - 1 do
          let cre = cr.{(k * d) + k'} and cim = ci.{(k * d) + k'} in
          if cre <> 0. || cim <> 0. then begin
            let q = ((((k' * d) + s) * dd) + (k * d)) + s'' in
            let rre = rr.{q} and rim = ri.{q} in
            accr := !accr +. ((cre *. rre) -. (cim *. rim));
            acci := !acci +. ((cre *. rim) +. (cim *. rre))
          end
        done
      done;
      outr.{(s * d) + s''} <- !accr;
      outi.{(s * d) + s''} <- !acci
    done
  done;
  out

(* Backward contraction step: given the effective POVM B on the sent
   register, pull it through the node to an effective POVM on the
   arriving register:
   B'[a, a'] = sum_{k k'} Pi[(a k),(a' k')] D[k, k']
   with D[k, k'] = sum_{s s'} B[s, s'] rho[(k' s'),(k s)]. *)
let backward_step d pi b rho =
  let br = Mat.raw_re b and bi = Mat.raw_im b in
  let rr = Mat.raw_re rho and ri = Mat.raw_im rho in
  let dd = d * d in
  let dm = Mat.create d d in
  let dr = Mat.raw_re dm and di = Mat.raw_im dm in
  for k = 0 to d - 1 do
    for k' = 0 to d - 1 do
      let accr = ref 0. and acci = ref 0. in
      for s = 0 to d - 1 do
        for s' = 0 to d - 1 do
          let p = (s * d) + s' in
          let bre = br.{p} and bim = bi.{p} in
          if bre <> 0. || bim <> 0. then begin
            let q = ((((k' * d) + s') * dd) + (k * d)) + s in
            let rre = rr.{q} and rim = ri.{q} in
            accr := !accr +. ((bre *. rre) -. (bim *. rim));
            acci := !acci +. ((bre *. rim) +. (bim *. rre))
          end
        done
      done;
      dr.{(k * d) + k'} <- !accr;
      di.{(k * d) + k'} <- !acci
    done
  done;
  let pr = Mat.raw_re pi and pi_ = Mat.raw_im pi in
  let out = Mat.create d d in
  let outr = Mat.raw_re out and outi = Mat.raw_im out in
  for a = 0 to d - 1 do
    for a' = 0 to d - 1 do
      let accr = ref 0. and acci = ref 0. in
      for k = 0 to d - 1 do
        let row = ((((a * d) + k) * dd) + (a' * d)) in
        for k' = 0 to d - 1 do
          let p = row + k' in
          let pre = pr.{p} and pim = pi_.{p} in
          if pre <> 0. || pim <> 0. then begin
            let q = (k * d) + k' in
            let dre = dr.{q} and dim = di.{q} in
            accr := !accr +. ((pre *. dre) -. (pim *. dim));
            acci := !acci +. ((pre *. dim) +. (pim *. dre))
          end
        done
      done;
      outr.{(a * d) + a'} <- !accr;
      outi.{(a * d) + a'} <- !acci
    done
  done;
  out

let accept inst =
  check inst;
  let d = inst.d in
  let pi = swap_projector d in
  let e = ref (Mat.of_vec inst.left) in
  Array.iter
    (fun rho -> e := forward_step d pi !e (symmetrize d rho))
    inst.pairs;
  (Mat.trace (Mat.mul inst.final !e)).Complex.re

let product_instance ~d ~left ~states ~final =
  {
    d;
    left;
    pairs = Array.map (fun s -> Mat.of_vec (Vec.tensor s s)) states;
    final;
  }

(* The acceptance is tr[rho_j G_j] for the effective operator
   G[(k s),(k' s')] = sum_{a a'} Pi[(a k),(a' k')] E[a', a] B[s, s'];
   the sum over (a, a') is pi_contract and the (s, s') dependence is a
   rank-one pattern in B, so G is the Kronecker product C (x) B.  With
   the symmetrization channel folded in (self-adjoint), the optimal
   node proof is the top eigenvector of (G + S G S)/2. *)
let effective_operator d pi e b = Mat.tensor (pi_contract d pi e) b

(* maximize <a (x) b| G |a (x) b> by alternating eigenproblems on the
   two halves; each half update contracts the fixed factor out of G in
   two passes (Mat.quad_minor / Mat.quad_major). *)
let best_product_pair st ~d g =
  let a = ref (States.random_unit st d) and b = ref (States.random_unit st d) in
  let value = ref 0. in
  for _ = 1 to 8 do
    (* effective operator on a with b fixed *)
    let ga = Mat.quad_minor g !b in
    let ga = Mat.scale (Cx.re 0.5) (Mat.add ga (Mat.adjoint ga)) in
    let _, va = Eig.top_hermitian ga in
    a := va;
    let gb = Mat.quad_major g !a in
    let gb = Mat.scale (Cx.re 0.5) (Mat.add gb (Mat.adjoint gb)) in
    let lb, vb = Eig.top_hermitian gb in
    b := vb;
    value := lb
  done;
  (Mat.of_vec (Vec.tensor !a !b), !value)

let optimize_generic update_node st ~d ~r ~left ~final ~sweeps =
  if r < 2 then invalid_arg "Sep_sim.optimize: r >= 2";
  let pi = swap_projector d in
  let random_pure () = Mat.of_vec (States.random_unit st (d * d)) in
  let pairs = Array.init (r - 1) (fun _ -> random_pure ()) in
  for _ = 1 to sweeps do
    for j = 0 to r - 2 do
      let e = ref (Mat.of_vec left) in
      for i = 0 to j - 1 do
        e := forward_step d pi !e (symmetrize d pairs.(i))
      done;
      let b = ref final in
      for i = r - 2 downto j + 1 do
        b := backward_step d pi !b (symmetrize d pairs.(i))
      done;
      let g = effective_operator d pi !e !b in
      let s = Mat.swap_gate d in
      let g_sym =
        Mat.scale (Cx.re 0.5) (Mat.add g (Mat.mul (Mat.mul s g) s))
      in
      let g_herm =
        Mat.scale (Cx.re 0.5) (Mat.add g_sym (Mat.adjoint g_sym))
      in
      pairs.(j) <- update_node g_herm
    done
  done;
  let final_inst = { d; left; pairs; final } in
  (final_inst, accept final_inst)

let optimize st ~d ~r ~left ~final ~sweeps =
  let update g = Mat.of_vec (snd (Eig.top_hermitian g)) in
  optimize_generic update st ~d ~r ~left ~final ~sweeps

let optimize_product st ~d ~r ~left ~final ~sweeps =
  let update g = fst (best_product_pair st ~d g) in
  optimize_generic update st ~d ~r ~left ~final ~sweeps
