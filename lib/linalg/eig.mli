(** Eigensolvers for real symmetric and complex Hermitian matrices.

    The full-spectrum solvers ({!symmetric}, {!hermitian} and the
    functions built on them) use cyclic Jacobi rotations: cubic per
    sweep, but numerically robust and dependency-free.  They serve the
    small operators of the quantum layer (densities, POVM elements,
    Schmidt decompositions).  The Hermitian case is reduced to the real
    symmetric one through the standard embedding
    [H = A + iB  ->  [[A, -B]; [B, A]]], whose spectrum doubles every
    eigenvalue of [H].

    Callers that need only the largest eigenpair use the Lanczos
    solver {!top_operator}, which never forms the full spectrum and
    needs only the operator's action: the exact entangled optimum runs
    it matrix-free on [V^dagger V], and the alternating product/node
    optimisers run it on small dense forms through {!top_hermitian}. *)

(** [symmetric a] diagonalizes the real symmetric matrix [a] (given as
    an array of rows).  Returns [(evals, evecs)] with eigenvalues in
    ascending order and [evecs.(i)] the (row-stored) eigenvector of
    [evals.(i)], forming an orthonormal basis.
    @raise Invalid_argument if [a] is not square. *)
val symmetric : float array array -> float array * float array array

(** [hermitian m] diagonalizes the Hermitian matrix [m].  Returns
    eigenvalues in ascending order and a unitary matrix whose [i]-th
    column is the eigenvector of the [i]-th eigenvalue.
    @raise Invalid_argument if [m] is not square. *)
val hermitian : Mat.t -> float array * Mat.t

(** [top_operator ~dim ~scale apply] is the largest eigenvalue of a
    Hermitian operator on dimension [dim], given only by its action
    [apply x ~dst] (which must overwrite [dst] with [A x] and leave [x]
    alone), with a unit eigenvector for it.  Lanczos iteration with
    full, twice applied reorthogonalisation; the start vector is dense
    and drawn from a fixed seed, so the result is deterministic: equal
    operators give bit-equal outputs.  Iteration stops when the Ritz
    residual [||A x - lambda x||] falls to [1e-12 scale], on breakdown,
    or after [dim] steps, so [scale] should bound [||A||] (any norm
    that does).  In a degenerate top eigenspace the vector returned is
    one member of it, not necessarily the one {!hermitian} returns.
    @raise Invalid_argument if [dim <= 0]. *)
val top_operator :
  dim:int -> scale:float -> (Vec.t -> dst:Vec.t -> unit) -> float * Vec.t

(** [top_hermitian m] is {!top_operator} on the Hermitian matrix [m]:
    [apply] is {!Mat.apply_into} and [scale] is [||m||_F].
    @raise Invalid_argument if [m] is not square or is empty. *)
val top_hermitian : Mat.t -> float * Vec.t

(** [eigenvalues_hermitian m] is [fst (hermitian m)] — the ascending
    spectrum of a Hermitian matrix. *)
val eigenvalues_hermitian : Mat.t -> float array

(** [func_hermitian f m] applies the scalar function [f] to the
    spectrum of the Hermitian matrix [m]: returns [V diag(f lambda) V^dagger]. *)
val func_hermitian : (float -> float) -> Mat.t -> Mat.t

(** [sqrt_psd m] is the positive-semidefinite square root of a PSD
    Hermitian matrix (negative eigenvalues due to rounding are clipped
    to zero). *)
val sqrt_psd : Mat.t -> Mat.t
