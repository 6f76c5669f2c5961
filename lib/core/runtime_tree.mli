(** Message-passing execution of the EQ^t tree protocol (Algorithm 5)
    on the {!Qdp_network.Runtime} engine.

    The spanning tree of Section 3.3 is materialized as a network of
    its own (one runtime node per tree node, edges to parents);
    fingerprint registers flow leaf-to-root as messages, every
    non-terminal node symmetrizes its prover pair locally and samples
    its permutation test on arrival.  Sampled acceptance frequencies
    converge to {!Eq_tree}'s closed forms (checked in the tests). *)

open Qdp_codes
open Qdp_network

(** A prepared case: the spanning tree with its materialized network,
    per-node child counts, and the register every node forwards and
    tests (terminal fingerprints, the prover's states) — all that
    depends only on the parameters, the instance and the strategy.
    Runs only read it. *)
type prepared

(** [prepare params g ~terminals ~inputs strategy] builds the spanning
    tree and the case.  Pure: it draws no randomness. *)
val prepare :
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  prepared

(** [run st prepared] executes one repetition as real message passing
    and returns the global verdict plus traffic stats. *)
val run : Random.State.t -> prepared -> bool * Runtime.stats

(** [run_faulty st env prepared] is {!run} under the fault environment
    (register noise on the leaf-to-root fingerprint messages, link
    faults, crashes), returning raw per-node verdicts for the fault
    layer's recovery semantics. *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  prepared ->
  Runtime.verdict array * Runtime.stats

(** [run_once st params g ~terminals ~inputs strategy] is
    [run st (prepare params g ~terminals ~inputs strategy)]. *)
val run_once :
  Random.State.t ->
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  bool * Runtime.stats

(** [estimate_acceptance st ~trials params g ~terminals ~inputs
    strategy] is the empirical acceptance frequency over [trials] runs
    of one prepared case. *)
val estimate_acceptance :
  Random.State.t ->
  trials:int ->
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  float
