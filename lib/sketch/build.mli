(** One build entry point for every sketch family.

    [run] dispatches on {!Family.t} and normalises the three builders
    to a single result shape, so the CLI, experiments and bench drive
    any family through the same call: [Tz] samples a hierarchy with
    [Rng.create (seed + 1)] (the established CLI convention, kept so
    [--sketch tz] reproduces historical snapshots bit-for-bit) and
    runs {!Ds_core.Tz_distributed}; [Landmark] and [Bottomk] run the
    protocols of this library with the seed as given. All three are
    deterministic in [(g, k, seed)] and byte-identical across
    backends and domain/shard counts. *)

type result = {
  sketch : Sketch.t;
  metrics : Ds_congest.Metrics.t;
  mem_words : int;  (** plane backbone footprint at completion *)
}

val run :
  ?backend:Ds_congest.Plane.backend ->
  ?pool:Ds_parallel.Pool.t ->
  ?shards:int ->
  ?tracer:Ds_congest.Trace.t ->
  ?obs:Ds_obs.Obs.t ->
  family:Family.t ->
  Ds_graph.Graph.t ->
  k:int ->
  seed:int ->
  result
