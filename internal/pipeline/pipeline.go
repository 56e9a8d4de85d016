// Package pipeline implements the multi-path transfer engine the paper
// builds on (Sojoodi et al., ExHET'24 [35]): a single GPU-to-GPU message is
// split across several paths, and staged paths move their share as a
// pipeline of chunks through a three-step process per chunk:
//
//  1. copy the chunk from the source GPU to the staging location,
//  2. synchronize to ensure the chunk has arrived,
//  3. copy the chunk from the staging location to the destination GPU.
//
// Each staged path uses two CUDA streams (one per leg) ordered by events,
// so consecutive chunks overlap: while chunk c crosses the second leg,
// chunk c+1 crosses the first. Staging memory is a small ring buffer; the
// first leg stalls when all slots hold chunks not yet drained by the
// second leg.
//
// Paths are initiated sequentially by the issuing CPU thread; each path's
// initiation occupies the CPU for the first leg's launch latency, which is
// why Algorithm 1 accumulates earlier paths' α into later paths' Δ.
//
// One lowering, lowerPath, issues a path's streams, copies and event
// waits. Execute runs it on live streams with the per-chunk ε delay;
// Compile runs it on capturing streams without it (see compile.go).
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ErrNonPositiveBytes is returned by Engine.Execute (and Compile) for
// plans whose byte count is zero, negative, or non-finite — sizes that
// would otherwise surface later as NaN bandwidths or empty transfers.
var ErrNonPositiveBytes = errors.New("pipeline: non-positive transfer size")

// Config tunes the engine.
type Config struct {
	// StagingSlots is the ring-buffer depth per staged path (chunks that
	// may be in flight between the two legs). Default 2 (double buffering).
	StagingSlots int
	// SequentialInitiation serializes path launches on the issuing CPU
	// (matches Algorithm 1 line 18). Disabling it is an ablation.
	SequentialInitiation bool
}

// DefaultConfig returns the runtime configuration.
func DefaultConfig() Config {
	return Config{StagingSlots: 2, SequentialInitiation: true}
}

// Engine executes multi-path transfer plans on a simulated CUDA runtime.
type Engine struct {
	rt  *cuda.Runtime
	cfg Config
	// tr, when set, records per-path execution spans and per-chunk
	// completion instants. Attach before executing; nil costs one pointer
	// check per path launch.
	tr *obs.Tracer
}

// New creates an engine.
func New(rt *cuda.Runtime, cfg Config) *Engine {
	if cfg.StagingSlots <= 0 {
		cfg.StagingSlots = 2
	}
	return &Engine{rt: rt, cfg: cfg}
}

// Runtime returns the engine's CUDA runtime.
func (e *Engine) Runtime() *cuda.Runtime { return e.rt }

// AttachTracer wires span tracing into the engine: each active path of an
// executed plan records a span on its "path:<name>" track, and staged
// chunk completions record instants. Attach before issuing transfers (the
// field is read from simulation callbacks); attaching nil detaches.
func (e *Engine) AttachTracer(tr *obs.Tracer) { e.tr = tr }

// Tracer returns the attached tracer, or nil.
func (e *Engine) Tracer() *obs.Tracer { return e.tr }

// Result tracks one executed transfer.
type Result struct {
	Plan    *core.Plan
	Started sim.Time
	Done    *sim.Signal
	// PathDone records each path's completion time (indexed like
	// Plan.Paths; zero-share paths stay at -1).
	PathDone []sim.Time
	// PathErr records each path's failure, nil for paths that delivered
	// their share (indexed like Plan.Paths). Failover layers use it to
	// classify which paths to exclude and how many bytes actually arrived.
	PathErr []error
}

// Elapsed returns the end-to-end transfer time. Valid once Done fires;
// zero before then (never negative).
func (r *Result) Elapsed() float64 {
	if !r.Done.Fired() {
		return 0
	}
	el := r.Done.FiredAt() - r.Started
	if el < 0 {
		return 0
	}
	return el
}

// Bandwidth returns achieved bytes/second. Zero-byte and zero-elapsed
// transfers report 0 rather than NaN or Inf.
func (r *Result) Bandwidth() float64 {
	el := r.Elapsed()
	if el <= 0 || r.Plan == nil || r.Plan.Bytes <= 0 {
		return 0
	}
	return r.Plan.Bytes / el
}

// newResult starts tracking plan at the current instant with every path
// still pending.
func (e *Engine) newResult(plan *core.Plan) *Result {
	res := &Result{
		Plan:     plan,
		Started:  e.rt.Sim().Now(),
		PathDone: make([]sim.Time, len(plan.Paths)),
		PathErr:  make([]error, len(plan.Paths)),
	}
	for i := range res.PathDone {
		res.PathDone[i] = -1
	}
	return res
}

// validatePlan applies the shared sanity checks of Execute and Compile.
func validatePlan(plan *core.Plan) error {
	if plan == nil || len(plan.Paths) == 0 {
		return fmt.Errorf("pipeline: empty plan")
	}
	if plan.Bytes <= 0 || math.IsNaN(plan.Bytes) || math.IsInf(plan.Bytes, 0) {
		return fmt.Errorf("%w: %v bytes", ErrNonPositiveBytes, plan.Bytes)
	}
	return nil
}

// Execute runs the plan. The returned result's Done signal fires when the
// last byte of the last path arrives at the destination.
func (e *Engine) Execute(plan *core.Plan) (*Result, error) {
	return e.ExecuteSpan(plan, obs.NoSpan)
}

// ExecuteSpan is Execute with an explicit trace parent: per-path execution
// spans are parented under the caller's span (typically a transfer or
// attempt span). With no tracer attached it behaves exactly like Execute.
func (e *Engine) ExecuteSpan(plan *core.Plan, parent obs.SpanID) (*Result, error) {
	if err := validatePlan(plan); err != nil {
		return nil, err
	}
	s := e.rt.Sim()
	res := e.newResult(plan)

	var finals []*sim.Signal
	offset := 0.0
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		idx := i
		final := s.NewSignal()
		final.OnFire(func() {
			res.PathDone[idx] = s.Now()
			res.PathErr[idx] = final.Err()
		})
		finals = append(finals, final)

		start := func() { e.startPath(pp, final, parent) }

		if e.cfg.SequentialInitiation {
			s.Schedule(offset, start)
			offset += pp.Param.Legs[0].Alpha
		} else {
			s.Schedule(0, start)
		}
	}
	if len(finals) == 0 {
		return nil, fmt.Errorf("pipeline: plan has no active paths")
	}
	res.Done = sim.AllOf(s, finals...)
	return res, nil
}

// startPath issues one path on live streams; final fires when the path's
// last chunk reaches the destination, or fails with its first failed copy.
func (e *Engine) startPath(pp *core.PathPlan, final *sim.Signal, parent obs.SpanID) {
	var trk string
	if e.tr != nil {
		trk = "path:" + pp.Path.String()
		sp := e.tr.Begin(trk, "path", pp.Path.Kind.String(), parent,
			obs.KVf("bytes", pp.Bytes), obs.KVi("chunks", int64(pp.Chunks)))
		final.OnFire(func() {
			if err := final.Err(); err != nil {
				e.tr.EndWith(sp, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
				return
			}
			e.tr.EndWith(sp, obs.KV("outcome", "ok"))
		})
	}
	last, st, err := e.lowerPath(pp, (*cuda.Device).NewStream, pp.Param.Eps,
		func(leg, chunk int, bytes float64, sig *sim.Signal, isLast bool) {
			// Any chunk copy failing on either leg fails the path: the
			// simulator has no notion of the data a chunk carried, so a lost
			// first-leg chunk cannot be silently "made up" by the second leg
			// completing.
			if !isLast {
				sig.OnFire(func() {
					if sig.Err() != nil {
						final.Fail(sig.Err())
					}
				})
			}
			if leg == 2 && e.tr != nil {
				sig.OnFire(func() {
					if sig.Err() == nil {
						e.tr.Instant(trk, "chunk", "chunk-done",
							obs.KVi("index", int64(chunk)), obs.KVf("bytes", bytes))
					}
				})
			}
		})
	if err != nil {
		final.Fail(err)
		return
	}
	last.OnFire(func() {
		if last.Err() != nil {
			final.Fail(last.Err())
			return
		}
		final.Fire()
	})
	if st.buf != nil {
		// final fires once, so this is the ring's only Free: it cannot fail.
		final.OnFire(func() { _ = st.buf.Free() })
	}
}

// staging is a staged path's ring buffer: slots slots of slotBytes each.
type staging struct {
	buf       interface{ Free() error } // nil for direct paths
	slotBytes float64
	slots     int
}

// allocStaging allocates a staged path's ring of slots slots of slotBytes
// each: on the intermediate GPU, or in pinned host memory of the path's
// NUMA domain.
func (e *Engine) allocStaging(p hw.Path, slotBytes float64, slots int) (staging, error) {
	st := staging{slotBytes: slotBytes, slots: slots}
	size := slotBytes * float64(slots)
	if p.Kind == hw.HostStaged {
		buf, err := e.rt.Host(p.Via).MallocHost(size)
		if err != nil {
			return staging{}, fmt.Errorf("pipeline: host staging alloc on NUMA %d: %w", p.Via, err)
		}
		st.buf = buf
		return st, nil
	}
	buf, err := e.rt.Device(p.Via).Malloc(size)
	if err != nil {
		return staging{}, fmt.Errorf("pipeline: staging alloc on GPU %d: %w", p.Via, err)
	}
	st.buf = buf
	return st, nil
}

// lowerPath issues one path's schedule on streams made by newStream and
// returns the path's last copy. A direct path is one copy. A staged path
// allocates its staging ring and pipelines its chunks through it, two
// streams ordered by events: per chunk, copy in on the first stream (after
// the chunk that last held the slot has drained), make the second stream
// wait for it, delay eps (the staging synchronization ε), copy out.
// onCopy runs right after each copy is issued, with leg 1 for the copy in
// (or a direct path's copy), leg 2 for the copy out, and isLast for the
// path's final copy.
func (e *Engine) lowerPath(
	pp *core.PathPlan,
	newStream func(dev *cuda.Device, name string) *cuda.Stream,
	eps float64,
	onCopy func(leg, chunk int, bytes float64, sig *sim.Signal, isLast bool),
) (*sim.Signal, staging, error) {
	src := e.rt.Device(pp.Path.Src)
	dst := e.rt.Device(pp.Path.Dst)
	var s1, s2 *cuda.Stream
	var leg1, leg2 func(st *cuda.Stream, bytes float64) *sim.Signal
	switch pp.Path.Kind {
	case hw.Direct:
		sig := newStream(src, "direct").MemcpyPeerAsync(dst, pp.Bytes)
		onCopy(1, 0, pp.Bytes, sig, true)
		return sig, staging{}, nil
	case hw.GPUStaged:
		via := e.rt.Device(pp.Path.Via)
		s1, s2 = newStream(src, "stage-up"), newStream(via, "stage-down")
		leg1 = func(st *cuda.Stream, b float64) *sim.Signal { return st.MemcpyPeerAsync(via, b) }
		leg2 = func(st *cuda.Stream, b float64) *sim.Signal { return st.MemcpyPeerAsync(dst, b) }
	case hw.HostStaged:
		numa := pp.Path.Via
		s1, s2 = newStream(src, "host-up"), newStream(dst, "host-down")
		leg1 = func(st *cuda.Stream, b float64) *sim.Signal { return st.MemcpyToHostAsync(numa, b) }
		leg2 = func(st *cuda.Stream, b float64) *sim.Signal { return st.MemcpyFromHostAsync(numa, b) }
	default:
		return nil, staging{}, fmt.Errorf("pipeline: unknown path kind %v", pp.Path.Kind)
	}

	sizes := SplitChunks(pp.Bytes, pp.Chunks)
	st, err := e.allocStaging(pp.Path, pp.Bytes/float64(len(sizes)), min(e.cfg.StagingSlots, len(sizes)))
	if err != nil {
		return nil, staging{}, err
	}
	drained := make([]*cuda.Event, len(sizes))
	var last *sim.Signal
	for c, sz := range sizes {
		// Ring buffer: reuse slot c mod slots — wait until the chunk that
		// previously occupied it has been drained by the second leg.
		if c >= st.slots {
			s1.WaitEvent(drained[c-st.slots])
		}
		onCopy(1, c, sz, leg1(s1, sz), false)
		s2.WaitEvent(s1.RecordEvent())
		if eps > 0 {
			s2.Delay(eps) // step 2: staging synchronization cost ε
		}
		last = leg2(s2, sz)
		onCopy(2, c, sz, last, c == len(sizes)-1)
		drained[c] = s2.RecordEvent()
	}
	return last, st, nil
}
