(** Message-passing execution of the EQ path protocol on the
    {!Qdp_network.Runtime} engine.

    Where {!Eq_path} computes acceptance probabilities in closed form,
    this module actually {e runs} the protocol: every node is a
    handler, fingerprint registers travel as messages along the path
    graph, symmetrization coins are flipped locally, SWAP tests are
    sampled, and the per-node verdicts come back through the runtime —
    together with its traffic accounting.  Sampled acceptance
    frequencies converge to the {!Eq_path} closed forms (checked in the
    test suite). *)

open Qdp_codes
open Qdp_network

(** Shares {!Eq_path.params} so closed-form and message-passing runs
    are configured by the same value ([repetitions] is ignored here:
    each run is one repetition). *)
type params = Eq_path.params = {
  n : int;
  r : int;
  seed : int;
  repetitions : int;
}

(** A prepared case: the fingerprints [|h_x>] and [|h_y>], the
    prover's register at every middle node and the path graph — all
    that depends only on [(params, x, y, strategy)].  Runs only read
    it, so one prepared case serves any number of runs on any number
    of domains. *)
type prepared

(** [prepare params x y strategy] builds the case.  Pure: it draws no
    randomness. *)
val prepare : params -> Gf2.t -> Gf2.t -> Strategy.t -> prepared

(** [run st prepared] executes one repetition and returns whether every
    node accepted, plus the runtime's traffic stats. *)
val run : Random.State.t -> prepared -> bool * Runtime.stats

(** [run_faulty st env prepared] executes one repetition under the
    fault environment: forwarded fingerprint registers pass through
    [env]'s register noise when the plan corrupts them, links
    drop/duplicate per the plan, crashed nodes freeze.  Returns the
    raw per-node verdicts so the fault layer can apply its recovery
    semantics (degraded verdicts need to know who was down). *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  prepared ->
  Runtime.verdict array * Runtime.stats

(** [run_once st params x y strategy] is
    [run st (prepare params x y strategy)]. *)
val run_once :
  Random.State.t ->
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  bool * Runtime.stats

(** [estimate_acceptance st ~trials params x y strategy] is the
    empirical acceptance frequency over [trials] runs of one prepared
    case. *)
val estimate_acceptance :
  Random.State.t ->
  trials:int ->
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  float
