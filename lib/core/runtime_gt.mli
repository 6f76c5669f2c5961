(** Message-passing execution of the GT protocol (Algorithm 7) on the
    {!Qdp_network.Runtime} engine.

    Every node measures its classical index register on arrival,
    forwards the measured index along with the quantum prefix
    fingerprint, and rejects deterministically on an index mismatch —
    the behaviour Algorithm 7 prescribes and the closed-form engine
    ({!Gt}) assumes when it restricts cheating provers to a committed
    index.  This module also demonstrates the other case: a prover
    sending {e different} indices to different nodes is caught with
    certainty by the neighbour comparisons. *)

open Qdp_codes
open Qdp_network

(** What the prover distributes: a per-node claimed index plus the
    strategy for the prefix-fingerprint registers. *)
type prover = {
  node_index : int -> int;  (** claimed index at node [j], [0 <= j <= r] *)
  chain : Strategy.t;
}

(** [honest x y] commits to the witness index everywhere.
    @raise Invalid_argument when [GT (x, y) = 0]. *)
val honest : Gf2.t -> Gf2.t -> prover

(** [of_prover p] lifts a closed-form {!Gt.prover} (one committed
    index) to the runtime shape — the bridge the differential harness
    runs both backends through. *)
val of_prover : Gt.prover -> prover

(** A prepared case: every node's claimed index with its register
    (the prefix fingerprints at the ends, the prover's chain states in
    between), the endpoints' classical checks and the path graph.
    Prefix fingerprints are encoded once per distinct claimed index,
    not once per node.  Runs only read it. *)
type prepared

(** [prepare params x y prover] builds the case.  Pure: it draws no
    randomness. *)
val prepare : Gt.params -> Gf2.t -> Gf2.t -> prover -> prepared

(** [run st prepared] executes one repetition; returns the global
    verdict and traffic stats.  Nodes check their claimed index against
    the one arriving from the left and reject on mismatch before any
    quantum test. *)
val run : Random.State.t -> prepared -> bool * Runtime.stats

(** [run_faulty st env prepared] executes one repetition under the
    fault environment; register noise corrupts the forwarded prefix
    fingerprints (the classical index header is left to the
    deterministic neighbour comparison).  Returns raw per-node verdicts
    for the fault layer's recovery semantics. *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  prepared ->
  Runtime.verdict array * Runtime.stats

(** [run_once st params x y prover] is [run st (prepare params x y prover)]. *)
val run_once :
  Random.State.t ->
  Gt.params ->
  Gf2.t ->
  Gf2.t ->
  prover ->
  bool * Runtime.stats

(** [estimate_acceptance st ~trials params x y prover] is the
    empirical acceptance frequency over [trials] runs of one prepared
    case. *)
val estimate_acceptance :
  Random.State.t -> trials:int -> Gt.params -> Gf2.t -> Gf2.t -> prover -> float
