// Compiled transfer graphs: instead of eagerly enqueuing a plan's
// stream/event schedule on every Execute, the engine can lower the plan
// once into a cuda.Graph and replay it per transfer with a single graph
// launch. Compile runs the same lowerPath as Execute on capturing streams,
// so the graph holds exactly the chunked k-way pipelines, ring-buffer
// waits and cross-stream event edges that Execute issues, as an immutable
// DAG.
//
// The cost model difference is the point (and mirrors the follow-on
// paper, "Accelerating Intra-Node GPU-to-GPU Communication Through
// Multi-Path Transfers with CUDA Graphs"): eager execution pays the
// per-path launch latency α sequentially (Algorithm 1 line 18) and a
// synchronization cost ε per chunk per window; a compiled graph pays one
// launch overhead per replay — the dependencies are baked in, so nothing
// else is charged. For small and medium messages, where ε·k and the
// accumulated α dominate, this visibly bends the bandwidth curves upward.
package pipeline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/obs"
	"repro/internal/sim"
)

// compiledPath is the lowered form of one active plan path.
type compiledPath struct {
	idx   int // index into plan.Paths
	group int // graph completion group
	// leg1/leg2 are the copy-node IDs per chunk (leg2 empty for direct
	// paths, whose single copy lives in leg1[0]). Kept in chunk order so
	// byte patching walks them deterministically; len(leg1) is the chunk
	// count.
	leg1, leg2 []int
	staging    // kept for reallocation on patch; zero for direct paths
}

// CompiledPlan is a plan lowered into an instantiated transfer graph.
// Replays are issued with ExecuteCompiled; UpdateTo patches byte counts
// in place for a structurally identical plan (same paths, same chunk
// counts) without re-instantiation.
type CompiledPlan struct {
	engine   *Engine
	plan     *core.Plan
	exec     *cuda.GraphExec
	paths    []compiledPath
	released bool
}

// Plan returns the plan the graph currently encodes (the compile-time
// plan, or the last plan patched in with UpdateTo).
func (cp *CompiledPlan) Plan() *core.Plan { return cp.plan }

// Exec exposes the instantiated graph (diagnostics, launch counters).
func (cp *CompiledPlan) Exec() *cuda.GraphExec { return cp.exec }

// launchOverheadFor derives the per-replay launch cost for a plan: the
// largest staging synchronization cost ε among the active paths, read from
// the topology (not the plan's params, which a graph-aware planner zeroes).
// Eager execution pays ε once per chunk per window and serializes path
// initiations; a graph replay pays ε exactly once — the launch that submits
// the whole baked DAG. A direct-only plan has ε = 0 and replays with no
// added overhead, matching eager execution of the same plan.
func (e *Engine) launchOverheadFor(plan *core.Plan) float64 {
	node := e.rt.Node()
	worst := 0.0
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		if eps := node.Epsilon(pp.Path); eps > worst {
			worst = eps
		}
	}
	return worst
}

// Compile lowers the plan into a transfer graph and instantiates it. The
// capture issues Execute's schedule through the same lowerPath — per-path
// streams, the chunked staging pipeline with its ring-buffer waits — minus
// the eager-only overheads (per-chunk ε delays, sequential path
// initiation), which the single launch overhead replaces. Staging memory is
// allocated at compile time and held for the compiled plan's lifetime;
// call Release to return it.
func (e *Engine) Compile(plan *core.Plan) (*CompiledPlan, error) {
	if err := validatePlan(plan); err != nil {
		return nil, err
	}
	g := e.rt.NewGraph()
	capture := func(dev *cuda.Device, name string) *cuda.Stream {
		return g.CaptureStream(dev, "graph-"+name)
	}
	cp := &CompiledPlan{engine: e, plan: plan}
	for i := range plan.Paths {
		pp := &plan.Paths[i]
		if pp.Bytes <= 0 {
			continue
		}
		lp := compiledPath{idx: i, group: len(cp.paths)}
		g.StartGroup(lp.group)
		// A captured copy returns an inert signal; only a copy that cannot
		// be issued at all (no route) comes back already failed.
		var issueErr error
		_, st, err := e.lowerPath(pp, capture, 0, func(leg, _ int, _ float64, sig *sim.Signal, _ bool) {
			if issueErr == nil {
				issueErr = sig.Err()
			}
			if leg == 1 {
				lp.leg1 = append(lp.leg1, g.NodeCount()-1)
			} else {
				lp.leg2 = append(lp.leg2, g.NodeCount()-1)
			}
		})
		lp.staging = st
		cp.paths = append(cp.paths, lp)
		if err == nil {
			err = issueErr
		}
		if err != nil {
			cp.freeBuffers()
			return nil, err
		}
	}
	if len(cp.paths) == 0 {
		return nil, fmt.Errorf("pipeline: plan has no active paths")
	}
	g.End()
	exec, err := g.Instantiate(e.launchOverheadFor(plan))
	if err != nil {
		cp.freeBuffers()
		return nil, err
	}
	cp.exec = exec
	if e.tr != nil {
		e.tr.Instant("graph", "graph", "compile",
			obs.KVi("nodes", int64(g.NodeCount())),
			obs.KVi("paths", int64(len(cp.paths))),
			obs.KVf("bytes", plan.Bytes))
	}
	return cp, nil
}

// ExecuteCompiled replays the compiled graph once and returns a Result
// with the same shape Execute produces: per-path completion times and
// errors, and a Done signal firing when the last byte lands. The launch
// itself is O(1) in the chunk and window count — the DAG unrolls inside
// simulator events.
func (e *Engine) ExecuteCompiled(cp *CompiledPlan) (*Result, error) {
	return e.ExecuteCompiledSpan(cp, obs.NoSpan)
}

// ExecuteCompiledSpan is ExecuteCompiled with an explicit trace parent:
// the replay records a span on the graph track from launch to completion.
func (e *Engine) ExecuteCompiledSpan(cp *CompiledPlan, parent obs.SpanID) (*Result, error) {
	if cp.released {
		return nil, fmt.Errorf("pipeline: ExecuteCompiled on a released compiled plan")
	}
	s := e.rt.Sim()
	res := e.newResult(cp.plan)
	rep := cp.exec.Launch()
	for _, lp := range cp.paths {
		idx := lp.idx
		gd := rep.GroupDone(lp.group)
		gd.OnFire(func() {
			res.PathDone[idx] = s.Now()
			res.PathErr[idx] = gd.Err()
		})
	}
	res.Done = rep.Done()
	if e.tr != nil {
		sp := e.tr.Begin("graph", "graph", "replay", parent,
			obs.KVf("bytes", cp.plan.Bytes), obs.KVi("paths", int64(len(cp.paths))))
		res.Done.OnFire(func() {
			if err := res.Done.Err(); err != nil {
				e.tr.EndWith(sp, obs.KV("outcome", "error"), obs.KV("error", err.Error()))
				return
			}
			e.tr.EndWith(sp, obs.KV("outcome", "ok"))
		})
	}
	return res, nil
}

// Patchable reports whether a compiled graph built from `from` can be
// re-pointed at `to` by parameter update alone: the path lists must match
// exactly, with the same set of active paths and the same per-path chunk
// counts. Share rebalances and byte-count changes are patchable;
// structural changes (a path entering or leaving the plan, a chunk-count
// change) require recompilation.
func Patchable(from, to *core.Plan) bool {
	if from == nil || to == nil || len(from.Paths) != len(to.Paths) {
		return false
	}
	for i := range from.Paths {
		a, b := &from.Paths[i], &to.Paths[i]
		if a.Path != b.Path {
			return false
		}
		activeA, activeB := a.Bytes > 0, b.Bytes > 0
		if activeA != activeB {
			return false
		}
		if activeA && a.Chunks != b.Chunks {
			return false
		}
	}
	return true
}

// UpdateTo patches the compiled graph's byte parameters to encode plan —
// a GraphExecUpdate, not a re-instantiation. The plan must be Patchable
// from the currently encoded one. Staging rings grow in place when the
// new chunk size exceeds the allocated slot size.
func (cp *CompiledPlan) UpdateTo(plan *core.Plan) error {
	if cp.released {
		return fmt.Errorf("pipeline: UpdateTo on a released compiled plan")
	}
	if err := validatePlan(plan); err != nil {
		return err
	}
	if !Patchable(cp.plan, plan) {
		return fmt.Errorf("pipeline: plan not patchable onto compiled graph (structure changed)")
	}
	var nodes []int
	var bytes []float64
	for pi := range cp.paths {
		lp := &cp.paths[pi]
		pp := &plan.Paths[lp.idx]
		sizes := SplitChunks(pp.Bytes, len(lp.leg1))
		for c, id := range lp.leg1 {
			nodes = append(nodes, id)
			bytes = append(bytes, sizes[c])
		}
		for c, id := range lp.leg2 {
			nodes = append(nodes, id)
			bytes = append(bytes, sizes[c])
		}
		if lp.buf != nil {
			if slot := pp.Bytes / float64(len(sizes)); slot > lp.slotBytes {
				if err := cp.reallocStaging(lp, pp, slot); err != nil {
					return err
				}
			}
		}
	}
	if err := cp.exec.UpdateBytes(nodes, bytes); err != nil {
		return err
	}
	if err := cp.exec.SetLaunchOverhead(cp.engine.launchOverheadFor(plan)); err != nil {
		return err
	}
	cp.plan = plan
	return nil
}

// reallocStaging grows one path's staging ring to fit a larger chunk.
func (cp *CompiledPlan) reallocStaging(lp *compiledPath, pp *core.PathPlan, slotBytes float64) error {
	if err := lp.buf.Free(); err != nil {
		return err
	}
	st, err := cp.engine.allocStaging(pp.Path, slotBytes, lp.slots)
	if err != nil {
		return err
	}
	lp.staging = st
	return nil
}

// Release frees the compiled plan's staging memory. Further replays are
// rejected. Releasing twice is a no-op.
func (cp *CompiledPlan) Release() {
	if cp.released {
		return
	}
	cp.released = true
	cp.freeBuffers()
}

func (cp *CompiledPlan) freeBuffers() {
	for i := range cp.paths {
		if cp.paths[i].buf != nil {
			_ = cp.paths[i].buf.Free()
			cp.paths[i].buf = nil
		}
	}
}
