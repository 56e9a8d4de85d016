package main

import (
	"fmt"
	"math"
	"sync"

	multipath "repro"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// OSU iteration counts, as in omb.DefaultP2PConfig.
const (
	osuWarmup = 1
	osuIters  = 3
	tagData   = 100
	tagAck    = 101
)

// xferResult is what one transfer operation produced.
type xferResult struct {
	// SimSeconds is the simulated time per measured iteration (Put: the
	// measured Put's completion time).
	SimSeconds float64
	// SimBandwidth is achieved bytes per simulated second (0 for
	// collectives).
	SimBandwidth float64
	// Stats is the transfer context's counters after the operation.
	Stats ucx.StatsSnapshot
}

// opConfig is the transport configuration an operation runs with.
func opConfig(op *xferOp) ucx.Config {
	cfg := ucx.DefaultConfig()
	cfg.PathSet = op.PathSet
	if op.Fault != nil {
		cfg.AdaptSegments = 4 // failover is on by default
	}
	return cfg
}

// newSystem builds a fresh simulated machine for op, with its fault plan
// armed when it carries one.
func newSystem(op *xferOp) (*multipath.System, error) { return buildSystem(op, opConfig(op)) }

func buildSystem(op *xferOp, cfg ucx.Config) (*multipath.System, error) {
	spec, err := topology(op.Cluster)
	if err != nil {
		return nil, err
	}
	opts := []multipath.Option{multipath.WithConfig(cfg)}
	if op.Fault != nil {
		opts = append(opts, multipath.WithFaults(op.Fault.plan()))
	}
	return multipath.NewSystem(spec, opts...)
}

// ranks is the communicator size op needs (rank i runs on GPU i).
func (op *xferOp) ranks() int {
	if op.Kind == "allreduce" || op.Kind == "alltoall" {
		return 4
	}
	return max(op.Src, op.Dst) + 1
}

// runXfer executes op on a fresh machine, as omb does per measured size.
func runXfer(op *xferOp) (xferResult, error) {
	sys, err := newSystem(op)
	if err != nil {
		return xferResult{}, err
	}
	var res xferResult
	if op.Kind == "put" {
		res, err = runPut(sys, op)
	} else {
		var w *mpi.World
		w, err = mpi.NewWorld(sys.Ctx, op.ranks(), mpi.DefaultOptions())
		if err == nil {
			res, err = runOSU(w, op)
		}
	}
	if err != nil {
		return xferResult{}, fmt.Errorf("%s %s %s %.0f B: %w", op.Cluster, op.Kind, op.PathSet, op.Bytes, err)
	}
	res.Stats = sys.Ctx.StatsSnapshot()
	return res, nil
}

// runPut issues a warm-up Put (opening the IPC handle, as OSU warm-up
// does) and then the measured Put.
func runPut(sys *multipath.System, op *xferOp) (xferResult, error) {
	ep, err := sys.Endpoint(op.Src, op.Dst)
	if err != nil {
		return xferResult{}, err
	}
	var req *ucx.Request
	for i := 0; i < 2; i++ {
		if req, err = ep.Put(op.Bytes); err != nil {
			return xferResult{}, err
		}
		if err := sys.Drain(); err != nil {
			return xferResult{}, err
		}
		if err := req.Done.Err(); err != nil {
			return xferResult{}, err
		}
	}
	el := req.Elapsed()
	return xferResult{SimSeconds: el, SimBandwidth: op.Bytes / el}, nil
}

// runOSU runs op's OSU body on the world: the bandwidth tests of osu_bw
// and osu_bibw, or a collective latency test. The bodies mirror package
// omb, which builds its own worlds and so cannot report the transport's
// counters; checkAgainstOMB confirms the two agree.
func runOSU(w *mpi.World, op *xferOp) (xferResult, error) {
	var elapsed float64
	var body func(p *sim.Proc, r *mpi.Rank) (float64, error)
	switch op.Kind {
	case "bw":
		body = func(p *sim.Proc, r *mpi.Rank) (float64, error) { return bwRank(p, r, op) }
	case "bibw":
		body = func(p *sim.Proc, r *mpi.Rank) (float64, error) { return bibwRank(p, r, op) }
	case "allreduce":
		body = func(p *sim.Proc, r *mpi.Rank) (float64, error) {
			return collRank(p, r, func() error { return r.Allreduce(p, op.Bytes) })
		}
	case "alltoall":
		body = func(p *sim.Proc, r *mpi.Rank) (float64, error) {
			return collRank(p, r, func() error { return r.Alltoall(p, op.Bytes) })
		}
	default:
		return xferResult{}, fmt.Errorf("unknown transfer kind %q", op.Kind)
	}
	err := w.Run(func(p *sim.Proc, r *mpi.Rank) error {
		d, err := body(p, r)
		elapsed = math.Max(elapsed, d)
		return err
	})
	if err != nil {
		return xferResult{}, err
	}
	res := xferResult{SimSeconds: elapsed / osuIters}
	switch op.Kind {
	case "bw":
		res.SimBandwidth = float64(osuIters*op.Window) * op.Bytes / elapsed
	case "bibw":
		res.SimBandwidth = 2 * float64(osuIters*op.Window) * op.Bytes / elapsed
	}
	return res, nil
}

// bwRank is one rank of osu_bw; the sender returns the measured time.
func bwRank(p *sim.Proc, r *mpi.Rank, op *xferOp) (float64, error) {
	var start float64
	for i := 0; i < osuWarmup+osuIters; i++ {
		if i == osuWarmup {
			start = p.Now()
		}
		var reqs []*mpi.Request
		for k := 0; k < op.Window; k++ {
			var req *mpi.Request
			var err error
			switch r.ID() {
			case op.Src:
				req, err = r.Isend(op.Dst, op.Bytes, tagData)
			case op.Dst:
				req, err = r.Irecv(op.Src, op.Bytes, tagData)
			default:
				return 0, nil
			}
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, req)
		}
		if err := r.Wait(p, reqs...); err != nil {
			return 0, err
		}
		var err error
		if r.ID() == op.Src {
			err = r.Recv(p, op.Dst, 0, tagAck)
		} else {
			err = r.Send(p, op.Src, 0, tagAck)
		}
		if err != nil {
			return 0, err
		}
	}
	if r.ID() != op.Src {
		return 0, nil
	}
	return p.Now() - start, nil
}

// bibwRank is one rank of osu_bibw: both ranks send a window each way.
func bibwRank(p *sim.Proc, r *mpi.Rank, op *xferOp) (float64, error) {
	peer := op.Src
	switch r.ID() {
	case op.Src:
		peer = op.Dst
	case op.Dst:
	default:
		return 0, nil
	}
	var start float64
	for i := 0; i < osuWarmup+osuIters; i++ {
		if i == osuWarmup {
			start = p.Now()
		}
		var reqs []*mpi.Request
		for k := 0; k < op.Window; k++ {
			sreq, err := r.Isend(peer, op.Bytes, tagData+r.ID())
			if err != nil {
				return 0, err
			}
			rreq, err := r.Irecv(peer, op.Bytes, tagData+peer)
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, sreq, rreq)
		}
		if err := r.Wait(p, reqs...); err != nil {
			return 0, err
		}
	}
	return p.Now() - start, nil
}

// collRank is one rank of a collective latency test: warm-up, barrier,
// then the measured iterations.
func collRank(p *sim.Proc, r *mpi.Rank, coll func() error) (float64, error) {
	for i := 0; i < osuWarmup; i++ {
		if err := coll(); err != nil {
			return 0, err
		}
	}
	if err := r.Barrier(p); err != nil {
		return 0, err
	}
	start := p.Now()
	for i := 0; i < osuIters; i++ {
		if err := coll(); err != nil {
			return 0, err
		}
	}
	return p.Now() - start, nil
}

// xferBook keeps the first two results of every operation of the transfer
// list, shared by all clients. Simulated results are deterministic, so the
// two repetitions must agree bit for bit.
type xferBook struct {
	mu   sync.Mutex
	reps [][]xferResult
}

func newXferBook(n int) *xferBook { return &xferBook{reps: make([][]xferResult, n)} }

func (b *xferBook) add(i int, r xferResult) {
	b.mu.Lock()
	if len(b.reps[i]) < 2 {
		b.reps[i] = append(b.reps[i], r)
	}
	b.mu.Unlock()
}

// missing lists operations with fewer than two recorded repetitions.
func (b *xferBook) missing() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for i, reps := range b.reps {
		for k := len(reps); k < 2; k++ {
			out = append(out, i)
		}
	}
	return out
}

// digests hashes each repetition's simulated completion times in
// operation order (FNV-1a over the float bits).
func (b *xferBook) digests() (first, second uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first, second = 14695981039346656037, 14695981039346656037
	mix := func(h uint64, r xferResult) uint64 {
		for _, v := range []float64{r.SimSeconds, r.SimBandwidth} {
			bits := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				h = (h ^ (bits & 0xff)) * 1099511628211
				bits >>= 8
			}
		}
		return h
	}
	for _, reps := range b.reps {
		first = mix(first, reps[0])
		second = mix(second, reps[1])
	}
	return first, second
}
