package ucx

// The compiled-graph cache is the transport's second-level fast path,
// layered over the planner's configuration cache and keyed identically
// (core.Plan.Key — the same uint64 hash of candidate paths and size). At
// steady state a warm Put is: plan-cache hit → graph-cache hit → one O(1)
// graph replay. It is a par.Cache, the same sharded CLOCK cache with
// singleflight misses that backs the plan cache; graphs it drops release
// their staging memory.

// graphCacheCapacity bounds retained compiled graphs. Graphs are heavier
// than plans (each staged path holds a staging ring), so the bound is much
// tighter than the plan cache's.
const graphCacheCapacity = 256

// GraphStats counts compiled-graph cache and executor behaviour. The JSON
// tags are part of the serving wire contract (StatsSnapshot embeds this
// struct and /v1/stats serves it).
type GraphStats struct {
	// Hits are lookups served an already-instantiated graph.
	Hits int64 `json:"hits"`
	// Misses are lookups that had to compile.
	Misses int64 `json:"misses"`
	// Compiles counts graph compilations (cache misses plus structural
	// recompiles and feeder-private compiles).
	Compiles int64 `json:"compiles"`
	// Replays counts graph launches (warm transfers executed by replay).
	Replays int64 `json:"replays"`
	// Patches counts in-place parameter updates (GraphExecUpdate-style)
	// applied instead of recompiling.
	Patches int64 `json:"patches"`
	// Invalidations counts graphs dropped by fault notifications and
	// failover exclusions.
	Invalidations int64 `json:"invalidations"`
	// Evictions counts graphs dropped by the CLOCK capacity bound.
	Evictions int64 `json:"evictions"`
	// InflightMerges counts lookups that joined an in-flight compilation
	// of the same key (singleflight).
	InflightMerges int64 `json:"inflight_merges"`
}
