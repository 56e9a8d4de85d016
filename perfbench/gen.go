package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/hw"
	"repro/internal/omb"
	v1 "repro/internal/serve/v1"
)

// Seeded input generation. Everything the program under test receives —
// plan requests, reload documents, transfer operations and fault plans —
// is derived here from the workload name and the seed, and from nothing
// else. The seed orders the requests and transfers, picks the traced
// samples and sets the fault parameters; the sets of plan keys and
// transfers stay fixed, so aggregate metrics stay comparable across seeds.
// Transfers run between GPUs 0 and 1: the presets are not symmetric under
// relabelling for host-staged paths.

var (
	clusterNames  = []string{"beluga", "narval"}
	planPathSets  = []string{"direct", "2gpus", "3gpus", "3gpus_host"}
	sweepPathSets = []string{"2gpus", "3gpus", "3gpus_host"}
)

const (
	// batchItems is the plan_hot request shape.
	batchItems = 1024
	// batchRing is how many distinct pre-encoded batches each plan_hot
	// client cycles through: 27 × 1024 items hold the 864-key grid exactly
	// 32 times, so every seed plans the same mix of keys.
	batchRing = 27
	// hotSamples is how many of its first batch answers each plan_hot
	// client keeps for the check against the reference planners.
	hotSamples = 4
	// coldSizes distinct message sizes per (cluster, pair, path set) give
	// plan_cold 2 × 12 × 4 × 256 = 24576 keys, six times the default plan
	// cache capacity of 4096 (three times per tenant).
	coldSizes = 256
	// coldZipfS and coldZipfV skew plan_cold key popularity: P(k) ∝
	// (coldZipfV + k)^-coldZipfS over the keys in popularity order.
	coldZipfS = 1.1
	coldZipfV = 1024
	// coldReloadEvery: every this many requests of client 0 in plan_cold is
	// a hot reload of one cluster's topology.
	coldReloadEvery = 5000
	// coldPutEvery: a plan_cold client issues a Put after this many plans.
	coldPutEvery = 16
	// coldSamples caps the plan_cold answers each client keeps for the
	// check against the reference planners.
	coldSamples = 256
	// contendedWindow is the OSU window of the contended bandwidth test.
	contendedWindow = 16
)

// topologyDocs holds each cluster's canonical topology document
// (hw.Spec.WriteJSON of the preset). The plan server registers and reloads
// clusters from these bytes, and every other machine the benchmark builds
// parses the same bytes, so all layers plan against bit-identical link
// parameters (the canonical form rounds latencies, so it differs from the
// preset in the last bits).
var topologyDocs = sync.OnceValues(func() (map[string][]byte, error) {
	docs := map[string][]byte{}
	for name, preset := range map[string]func() *hw.Spec{"beluga": hw.Beluga, "narval": hw.Narval} {
		var buf bytes.Buffer
		if err := preset().WriteJSON(&buf); err != nil {
			return nil, err
		}
		docs[name] = buf.Bytes()
	}
	return docs, nil
})

// topology parses a cluster's canonical topology document.
func topology(cluster string) (*hw.Spec, error) {
	docs, err := topologyDocs()
	if err != nil {
		return nil, err
	}
	return hw.SpecFromJSON(bytes.NewReader(docs[cluster]))
}

// gpuPairs lists the ordered GPU pairs of the 4-GPU presets.
func gpuPairs() [][2]int {
	var out [][2]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// faultSpec is one seeded fault plan: an NVLink degraded and a PCIe lane
// failed, both at simulated times inside the operation.
type faultSpec struct {
	DegradeAt   float64 `json:"degrade_at"`
	DegradeLink [2]int  `json:"degrade_link"`
	Factor      float64 `json:"factor"`
	FailAt      float64 `json:"fail_at"`
	FailGPU     int     `json:"fail_gpu"`
}

func (f *faultSpec) plan() *hw.FaultPlan {
	var fp hw.FaultPlan
	fp.Degrade(f.DegradeAt, hw.NVLinkRef(f.DegradeLink[0], f.DegradeLink[1]), f.Factor)
	fp.Fail(f.FailAt, hw.PCIeUpRef(f.FailGPU))
	return &fp
}

// xferOp is one transfer operation a caller issues after its plan arrives.
type xferOp struct {
	Cluster string  `json:"cluster"`
	Kind    string  `json:"kind"` // put, bw, bibw, allreduce, alltoall
	PathSet string  `json:"pathset"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Bytes   float64 `json:"bytes"`
	Window  int     `json:"window"`
	// Fault, when set, arms a fault plan and turns on failover with
	// adaptive segments.
	Fault *faultSpec `json:"fault,omitempty"`
}

// planItem is the plan query for op's first message.
func (op *xferOp) planItem() v1.BatchItem {
	return v1.BatchItem{Cluster: op.Cluster, Src: op.Src, Dst: op.Dst, Bytes: op.Bytes, PathSet: op.PathSet}
}

// planItems are the plan queries a caller sends before issuing op: one
// per message of one iteration.
func (op *xferOp) planItems() []v1.BatchItem {
	var out []v1.BatchItem
	for _, round := range op.iterRounds() {
		for _, pt := range round {
			out = append(out, v1.BatchItem{Cluster: op.Cluster, Src: pt.src, Dst: pt.dst, Bytes: pt.bytes, PathSet: op.PathSet})
		}
	}
	return out
}

// inputs is everything one workload run feeds the program.
type inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Xfers is the transfer list every client cycles through.
	Xfers []xferOp `json:"xfers"`
	// HotGrid is plan_hot's key grid in seeded order, and HotOffsets each
	// client's start in it: batch k of client c is the batchItems keys
	// from offset + k × batchItems on, wrapping around (see hotBatch).
	HotGrid    []v1.BatchItem `json:"hot_grid,omitempty"`
	HotOffsets []int          `json:"hot_offsets,omitempty"`
	// ColdKeys is plan_cold's key set, in popularity order.
	ColdKeys []v1.BatchItem `json:"cold_keys,omitempty"`
	// XferSample indexes the transfers the traced run replays layer by
	// layer.
	XferSample []int `json:"xfer_sample"`
}

// generate builds a workload's inputs from its seed. smoke trims the size
// grids so a run finishes in about a second.
func generate(workload string, seed int64, clients int, smoke bool) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: workload, Seed: seed}
	sizes := omb.DefaultSizes()
	if smoke {
		sizes = sizes[:3]
	}
	switch workload {
	case "plan_hot", "plan_cold":
		for _, c := range clusterNames {
			for _, ps := range planPathSets {
				for _, n := range sizes {
					in.Xfers = append(in.Xfers, xferOp{Cluster: c, Kind: "put", PathSet: ps, Src: 0, Dst: 1, Bytes: n, Window: 1})
				}
			}
		}
	case "p2p_sweep":
		for _, c := range clusterNames {
			for _, ps := range sweepPathSets {
				for _, n := range sizes {
					for _, kind := range []string{"bw", "bibw"} {
						in.Xfers = append(in.Xfers, xferOp{Cluster: c, Kind: kind, PathSet: ps, Src: 0, Dst: 1, Bytes: n, Window: 1})
					}
				}
			}
		}
	case "contended":
		csizes := []float64{1 * hw.MiB, 4 * hw.MiB, 16 * hw.MiB, 64 * hw.MiB}
		if smoke {
			csizes = csizes[2:] // the sizes whose faults cause retries
		}
		for _, c := range clusterNames {
			for _, kind := range []string{"bw", "allreduce", "alltoall"} {
				for _, n := range csizes {
					for _, faulted := range []bool{false, true} {
						op := xferOp{Cluster: c, Kind: kind, PathSet: "3gpus_host", Bytes: n, Window: 1, Src: 0, Dst: 1}
						if kind == "bw" {
							op.Window = contendedWindow
						}
						if faulted {
							op.Fault = seededFault(rng, &op)
						}
						in.Xfers = append(in.Xfers, op)
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	rng.Shuffle(len(in.Xfers), func(i, j int) { in.Xfers[i], in.Xfers[j] = in.Xfers[j], in.Xfers[i] })
	in.XferSample = sampleXfers(rng, in.Xfers)

	switch workload {
	case "plan_hot":
		grid := planGrid(sizes)
		rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
		in.HotGrid = grid
		for c := 0; c < clients; c++ {
			in.HotOffsets = append(in.HotOffsets, rng.Intn(len(grid)))
		}
	case "plan_cold":
		n := coldSizes
		if smoke {
			n = 128 // still 1.5 times a plan cache per cluster
		}
		for _, c := range clusterNames {
			for _, p := range gpuPairs() {
				for _, ps := range planPathSets {
					for i := 0; i < n; i++ {
						// Log-uniform over 2 MiB .. 512 MiB, 4 KiB aligned.
						b := 2 * hw.MiB * float64(int64(1)<<uint(rng.Intn(8)))
						b = float64(int64(b*(1+rng.Float64())) &^ (4*hw.KiB - 1))
						in.ColdKeys = append(in.ColdKeys, v1.BatchItem{Cluster: c, Src: p[0], Dst: p[1], Bytes: b, PathSet: ps})
					}
				}
			}
		}
		rng.Shuffle(len(in.ColdKeys), func(i, j int) { in.ColdKeys[i], in.ColdKeys[j] = in.ColdKeys[j], in.ColdKeys[i] })
	}
	return in, nil
}

// hotBatch returns the items of plan_hot client c's batch k.
func (in *inputs) hotBatch(c, k int) []v1.BatchItem {
	items := make([]v1.BatchItem, batchItems)
	for i := range items {
		items[i] = in.HotGrid[(in.HotOffsets[c]+k*batchItems+i)%len(in.HotGrid)]
	}
	return items
}

// planGrid is plan_hot's key set: clusters × ordered GPU pairs × sizes ×
// path sets.
func planGrid(sizes []float64) []v1.BatchItem {
	var out []v1.BatchItem
	for _, c := range clusterNames {
		for _, p := range gpuPairs() {
			for _, n := range sizes {
				for _, ps := range planPathSets {
					out = append(out, v1.BatchItem{Cluster: c, Src: p[0], Dst: p[1], Bytes: n, PathSet: ps})
				}
			}
		}
	}
	return out
}

// seededFault draws a fault plan landing inside op: the direct NVLink
// from the sending GPU degraded to about half, and the sender's PCIe lane
// failed. The times are a seeded share of a rough estimate of the
// operation's first round at 50 GB/s; the ranges are narrow so the
// workload's cost varies little between seeds.
func seededFault(rng *rand.Rand, op *xferOp) *faultSpec {
	est := float64(op.Window) * op.Bytes / 50e9
	return &faultSpec{
		DegradeAt:   est * (0.4 + 0.2*rng.Float64()),
		DegradeLink: [2]int{op.Src, op.Dst},
		Factor:      0.45 + 0.1*rng.Float64(),
		FailAt:      est * (0.4 + 0.2*rng.Float64()),
		FailGPU:     op.Src,
	}
}

// sampleXfers picks the four operations the traced run replays: fault-free
// ones, since below ucx the replays run on a healthy machine, covering
// every kind of operation the workload issues.
func sampleXfers(rng *rand.Rand, xfers []xferOp) []int {
	var first, rest []int
	seen := map[string]bool{}
	for _, i := range rng.Perm(len(xfers)) {
		switch {
		case xfers[i].Fault != nil:
		case !seen[xfers[i].Kind]:
			seen[xfers[i].Kind] = true
			first = append(first, i)
		default:
			rest = append(rest, i)
		}
	}
	return append(first, rest...)[:4]
}

// coldStream generates one plan_cold client's request sequence.
type coldStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []v1.BatchItem
}

func newColdStream(in *inputs, client int) *coldStream {
	rng := rand.New(rand.NewSource(in.Seed*7919 + int64(client) + 1))
	return &coldStream{rng: rng, keys: in.ColdKeys,
		zipf: rand.NewZipf(rng, coldZipfS, coldZipfV, uint64(len(in.ColdKeys)-1))}
}

func (s *coldStream) next() v1.BatchItem { return s.keys[s.zipf.Uint64()] }

// digest serializes the inputs plus the first requests of every stream,
// so a test can check that one seed always yields the same bytes.
func (in *inputs) digest(clients int) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(in); err != nil {
		return nil, err
	}
	if in.Workload == "plan_cold" {
		for c := 0; c < clients; c++ {
			s := newColdStream(in, c)
			for i := 0; i < 4096; i++ {
				if err := json.NewEncoder(&buf).Encode(s.next()); err != nil {
					return nil, err
				}
			}
		}
	}
	return buf.Bytes(), nil
}
