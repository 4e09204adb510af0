(** Das Sarma et al. (2010) random-landmark distance sketches.

    [r = max(1, ⌊log₂ n⌋)] landmark sets per iteration, sizes
    [min(2^j, n)] for [j = 0..r-1], repeated for [k] independent
    iterations — [k·r] sets total, all sampled up-front from a single
    [Rng.create seed] stream so the choice is identical on every
    backend. Every node learns, for every set, its closest landmark in
    the set and the exact distance; a node's sketch is the
    deduplicated set of those (landmark, distance) pairs.

    All [k·r] sets are built in one pipelined wave on one message
    plane: the super-source Bellman–Ford (Algorithm 1) run for every
    set at once, the way the paper pipelines the sources of a
    Thorup–Zwick level. A node keeps the lex-smallest
    [(dist, landmark)] per set and a FIFO of sets whose pair changed;
    each round it folds in its inbox and broadcasts one dirty set as a
    3-word [(set, landmark, dist)] message, so every link carries at
    most one message per round. Against [k·r] back-to-back waves this
    trades a word per message (the set id) for far fewer rounds, since
    the sets' waves overlap, and fewer messages, since there are no
    parent claims and repeated improvements to one set coalesce while
    it waits in the queue.

    Two sketches estimate [d(u,v)] as the minimum of
    [d(u,ℓ) + d(ℓ,v)] over common landmarks [ℓ] — an upper bound
    (entry distances are exact), exact whenever some vertex on a true
    shortest [u–v] path is a common landmark of both. The size-[2^j]
    sweep is what makes a near-midpoint landmark likely at every
    distance scale. *)

val r : n:int -> int
(** [max 1 ⌊log₂ n⌋] — sets per iteration. *)

val sets : n:int -> k:int -> seed:int -> int array array
(** The [k·r] sampled landmark sets, in build order (iteration-major),
    each sorted increasing — exposed so tests and docs can name the
    exact sets a seed produces. *)

type result = {
  sketch : Sketch.t;  (** family {!Family.Landmark} *)
  metrics : Ds_congest.Metrics.t;  (** one phase, ["landmark"] *)
  mem_words : int;  (** plane backbone footprint *)
}

val run :
  ?backend:Ds_congest.Plane.backend ->
  ?pool:Ds_parallel.Pool.t ->
  ?shards:int ->
  ?tracer:Ds_congest.Trace.t ->
  ?obs:Ds_obs.Obs.t ->
  Ds_graph.Graph.t ->
  k:int ->
  seed:int ->
  result
(** Build the sketches. Deterministic in [(g, k, seed)]:
    byte-identical sketches and metrics on either backend at any
    domain/shard count (the canonical inbox order pins the
    interleavings). *)

val reference : Ds_graph.Graph.t -> k:int -> seed:int -> (int * int) array array
(** Sequential specification over the same {!sets}: per set a
    centralized multi-source Dijkstra (same lex [(dist, landmark)]
    tie-break as [run]), then per node the sorted, deduplicated
    (landmark, distance) pairs. Returns per-node
    [(landmark, dist)] arrays sorted by node id — exactly the entry
    arrays of [run]'s sketch. *)
