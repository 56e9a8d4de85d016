package core

import (
	"math"

	"repro/internal/hw"
)

// The configuration cache of Algorithm 1 (lines 4-6) is the planner's fast
// path: at steady state every transfer is a cache hit, so the lookup must
// be allocation-free and safe under concurrent traffic. Model holds a
// par.Cache keyed by planKey; this file keeps the key hashing, size
// quantization, and the exported statistics shape.

// DefaultCacheCapacity bounds retained plans when Options.CacheCapacity is
// zero. Plans are small (a few hundred bytes); 4096 covers every (path set,
// size class) pair any workload in the paper touches.
const DefaultCacheCapacity = 4096

// CacheStats counts configuration-cache behaviour (Algorithm 1 lines 4-6).
// Counters are cumulative across InvalidateCache; ResetStats zeroes them.
// The JSON tags are part of the serving wire contract (the snapshot served
// by mpserve's /v1/stats embeds this struct).
type CacheStats struct {
	// Hits are lookups served from a completed cached plan.
	Hits int64 `json:"hits"`
	// Misses are lookups that computed a new plan.
	Misses int64 `json:"misses"`
	// Evictions counts plans dropped by the CLOCK bound.
	Evictions int64 `json:"evictions"`
	// InflightMerges counts lookups that joined an in-flight computation
	// of the same key instead of recomputing it (singleflight).
	InflightMerges int64 `json:"inflight_merges"`
}

// --- key hashing -----------------------------------------------------------

const fnvPrime = 0x100000001b3

// planKey hashes a candidate path set and message size to the compact
// cache key. Path order matters (Algorithm 1 initiates paths in order), so
// no canonicalization is applied. The size is hashed from its float bits —
// callers quantize first when size-class sharing is on.
func planKey(paths []hw.Path, n float64) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	h = (h ^ uint64(len(paths))) * fnvPrime
	for _, p := range paths {
		h = (h ^ packPath(p)) * fnvPrime
	}
	h = (h ^ math.Float64bits(n)) * fnvPrime
	return mix64(h)
}

// packPath packs one path per word: kind and the three (small) endpoint
// ids.
func packPath(p hw.Path) uint64 {
	return uint64(uint8(p.Kind))<<48 |
		uint64(uint16(p.Src))<<32 |
		uint64(uint16(p.Dst))<<16 |
		uint64(uint16(p.Via))
}

// mix64 is the splitmix64 finalizer: FNV alone mixes low bits poorly, and
// both the shard index and the map use them.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// quantizeSizeBits is the number of size-class subdivisions per power of
// two when Options.QuantizeSizes is on: 2^5 = 32 classes per octave, so a
// class representative under-states the true size by at most 1/32 ≈ 3.1%.
const quantizeSizeBits = 5

// quantizeSize floors a size to its class representative by keeping the
// top quantizeSizeBits bits of the float mantissa (UCX rendezvous-style
// bucketing: exponential octaves with linear sub-buckets).
func quantizeSize(n float64) float64 {
	if n <= 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return n
	}
	// Keeping the top (sign | exponent | 5 mantissa) bits truncates the
	// mantissa without touching the exponent.
	const mantissaBits = 52
	mask := ^(uint64(1)<<(mantissaBits-quantizeSizeBits) - 1)
	return math.Float64frombits(math.Float64bits(n) & mask)
}
