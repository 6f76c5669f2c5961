(** Domain-parallel execution over a lazily-started, reusable pool.

    Every embarrassingly parallel grid in the engines (Monte-Carlo
    shot loops, attack-search candidate grids, fault-sweep grids)
    funnels through this module, directly or via [Qdp_dist.map_shards]
    when no worker processes are configured.  The dense linear-algebra
    kernels stay sequential: the grid is the only level that decides
    sequential vs parallel.  The pool is built on stdlib [Domain] only
    — no external dependency — and is started on the first parallel
    call, then reused for the life of the process.

    {2 Determinism contract}

    [jobs () = 1] takes the exact sequential path: a plain [for] loop
    on the calling domain, no pool, no chunking of pure loops.  For
    randomized work, {!monte_carlo_hits} partitions the trials into
    fixed-size chunks whose RNG states are split off the caller's
    state {e in chunk order, independent of the job count}, so the
    result is byte-identical for every value of [--jobs] — parallel
    runs reproduce sequential runs per seed.

    {2 Profiling}

    Parallel regions and their task units are wrapped in
    [Qdp_obs.Prof.region]/[Qdp_obs.Prof.task], so with [--profile]
    enabled the profiler reports a per-domain busy/idle split over the
    pool.  While the profiler is off both hooks cost one atomic-load
    branch per region/task. *)

(** [jobs ()] is the worker-domain budget for parallel regions.  The
    first call resolves it from the [QDP_JOBS] environment variable
    when set to a positive integer, otherwise from
    [Domain.recommended_domain_count ()]. *)
val jobs : unit -> int

(** [set_jobs n] overrides the budget (the [--jobs N] flag).  [1]
    disables the pool entirely.
    @raise Invalid_argument on [n < 1]. *)
val set_jobs : int -> unit

(** [effective_jobs ()] is the parallelism every dispatch decision in
    this module actually uses: [jobs ()] clamped to
    [Domain.recommended_domain_count ()].  Requesting more domains
    than the host has cores is pure scheduling overhead (BENCH_perf
    measured up to 7x slowdowns at [--jobs 4] on a 1-core host), so an
    oversubscribed budget degrades to the sequential path instead.
    The clamp affects dispatch only, never results: the determinism
    contract already makes every [--jobs] value byte-identical. *)
val effective_jobs : unit -> int

(** [oversubscribe ()] reports whether the clamp in
    {!effective_jobs} is disabled.  Resolved on first use from the
    [QDP_OVERSUBSCRIBE] environment variable ([1]/[true]/[yes]);
    default [false]. *)
val oversubscribe : unit -> bool

(** [set_oversubscribe true] lets [effective_jobs] exceed the core
    count — for tests that must exercise real pool semantics
    (spawning, helping, nesting) on small hosts. *)
val set_oversubscribe : bool -> unit

(** [pool_started ()] is [true] once the pool has ever spawned a
    worker domain.  OCaml 5 forbids [Unix.fork] after any domain has
    been created, so the multi-process coordinator ([Qdp_dist]) checks
    this before forking and degrades to the in-process path when the
    pool is already live.  The read is unsynchronized: a false
    negative only means the subsequent fork attempt fails and is
    handled there. *)
val pool_started : unit -> bool

(** [parallel_for ?chunk lo hi body] runs [body i] for every
    [lo <= i < hi], split into blocks of [chunk] indices (default: a
    block count of about 4x the job count).  Iterations must be
    independent: they may write only to disjoint state.  Exceptions
    raised by iterations are re-raised in the caller — the one from
    the earliest block wins — after every block has finished.  Safe to
    nest: inner regions share the same pool, and blocked callers help
    drain the queue instead of idling. *)
val parallel_for : ?chunk:int -> int -> int -> (int -> unit) -> unit

(** [parallel_map_array ?chunk f arr] is [Array.map f arr] with the
    applications distributed over the pool. *)
val parallel_map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_reduce ?chunk ~neutral ~combine lo hi f] folds
    [combine] over [f lo .. f (hi - 1)].  Chunks are combined in index
    order, but the chunk boundaries depend on [chunk] (and, by
    default, on the job count), so [combine] must be exactly
    associative with [neutral] as identity — integer sums, [max],
    [min] — for results to be independent of [--jobs]. *)
val parallel_reduce :
  ?chunk:int -> neutral:'a -> combine:('a -> 'a -> 'a) -> int -> int -> (int -> 'a) -> 'a

(** Trials per RNG chunk in {!monte_carlo_hits}: part of the
    determinism contract (changing it changes every sampled number),
    so it is fixed and public. *)
val mc_chunk : int

(** [monte_carlo_hits ~st ~trials f] counts how often the randomized
    trial [f] returns [true] over [trials] runs.  The trials are
    partitioned into {!mc_chunk}-sized chunks; chunk [k] runs on its
    own RNG state, the [k]-th state split off [st] ([st] itself
    advances by exactly the number of chunks, whatever the job
    count).  The count — and the caller's [st] — are therefore
    byte-identical at every [--jobs] value.  Returns [0] when
    [trials <= 0]. *)
val monte_carlo_hits :
  st:Random.State.t -> trials:int -> (Random.State.t -> bool) -> int
