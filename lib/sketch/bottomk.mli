(** Rank-ordered bottom-k all-distance sketches (ADS), distributed.

    Every node draws a rank — a stateless SplitMix64 avalanche of
    [(seed, id)], ties broken by id — and the sketch of [u] is the set
    of nodes [v] such that fewer than [k] nodes with lex-lower rank
    lie at distance [<= d(u,v)] from [u] (Cohen's bottom-k ADS). Two
    sketches answer a query via the common-entry minimum
    [min d(u,w) + d(w,v)]; the globally minimum-rank node of a
    component is in every member's sketch, so connected pairs always
    get a finite upper bound.

    The protocol is a k-pruned Bellman–Ford: every node starts by
    announcing itself, and a received [(source, dist)] candidate is
    stored and forwarded only if fewer than [k] already-known sources
    dominate it (known at distance [<= dist] with lex-lower rank).
    Each node keeps its known sources sorted by [(rank, id)], so the
    possible dominators are the prefix before the candidate's
    insertion point and the test scans only that prefix; ranks come
    from one table per run, never from the wire.
    Entries are never evicted — later, shorter arrivals may
    retroactively demote an entry, so membership is decided by a final
    rank-ordered filter at quiescence. That permissiveness is what
    makes the result exact: along any shortest path every prefix
    candidate passes the admission test, so true ADS members end with
    exact distances, and the final filter then reproduces the
    sequential rank-ordered-Dijkstra sketch verbatim ({!reference},
    pinned by test). *)

val rank : seed:int -> int -> int
(** [rank ~seed v] — the node's non-negative rank word. *)

type result = {
  sketch : Sketch.t;  (** family {!Family.Bottomk} *)
  metrics : Ds_congest.Metrics.t;  (** one phase, ["bottomk"] *)
  mem_words : int;  (** plane backbone footprint *)
  max_pending : int;  (** deepest per-node rebroadcast queue *)
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
(** Build the sketches. Deterministic in [(g, k, seed)]: byte-identical
    sketches and metrics on either backend at any domain/shard count
    (the canonical inbox order pins the interleavings). *)

val reference : Ds_graph.Graph.t -> k:int -> seed:int -> (int * int) array array
(** Sequential specification: per node, Dijkstra distances, then admit
    nodes in ascending [(rank, id)] order iff fewer than [k] already
    admitted sit at distance [<=] the candidate's. Returns per-node
    [(node, dist)] arrays sorted by node id — exactly the entry arrays
    of [run]'s sketch. *)
