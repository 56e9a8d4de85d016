package pipeline

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/sim"
)

func runCompiled(t *testing.T, s *sim.Simulator, e *Engine, cp *CompiledPlan) *Result {
	t.Helper()
	res, err := e.ExecuteCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Done.Fired() {
		t.Fatal("compiled transfer never completed")
	}
	if err := res.Done.Err(); err != nil {
		t.Fatalf("compiled transfer failed: %v", err)
	}
	return res
}

func TestCompiledDirectMatchesEager(t *testing.T) {
	// A direct-only plan has no staging synchronization, so the derived
	// launch overhead is zero and the replay must reproduce eager timing
	// exactly.
	s, e := syntheticEngine(t, DefaultConfig())
	pl := manualPlan(400, directPlanPath(0, 1, 400))
	eager := run(t, s, e, pl).Elapsed()

	cp, err := e.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	compiled := runCompiled(t, s, e, cp).Elapsed()
	if compiled != eager {
		t.Fatalf("compiled %v != eager %v", compiled, eager)
	}
	almost(t, compiled, 4.0, 1e-9, "direct replay timing")
}

func TestCompiledStagedSkipsPerChunkEpsilon(t *testing.T) {
	// Eager pays ε per chunk (5.4 s for this plan, see
	// TestStagedEpsilonPerChunk); the compiled graph bakes the leg-2
	// dependency as an edge, so the replay runs the pure pipeline (5.0 s —
	// the synthetic topology itself has zero sync overhead, hence zero
	// launch overhead too).
	s, e := syntheticEngine(t, DefaultConfig())
	pl := manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0.1))
	eager := run(t, s, e, pl).Elapsed()
	almost(t, eager, 5.4, 1e-9, "eager pays per-chunk ε")

	cp, err := e.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	res := runCompiled(t, s, e, cp)
	almost(t, res.Elapsed(), 5.0, 1e-9, "compiled pays ε zero times per chunk")
	almost(t, res.PathDone[0]-res.Started, 5.0, 1e-9, "per-path completion wired")
}

// TestCompiledLaunchOverheadDerived pins the replay's launch overhead to
// the largest topology ε among the plan's active paths: a Beluga 2-GPU
// plan at 32 MiB uses its GPU-staged path, so it pays the GPU staging
// synchronization cost once per replay.
func TestCompiledLaunchOverheadDerived(t *testing.T) {
	pl := modelPlan(t, hw.Beluga, hw.TwoGPUs, 32*hw.MiB)
	_, e := presetEngine(t, hw.Beluga, DefaultConfig())
	node := e.Runtime().Node()
	want := 0.0
	for _, pp := range pl.Paths {
		if pp.Bytes > 0 {
			want = math.Max(want, node.Epsilon(pp.Path))
		}
	}
	if want != 3e-6 {
		t.Fatalf("largest active-path ε = %v, want 3µs", want)
	}
	cp, err := e.Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	if got := cp.Exec().LaunchOverhead(); got != want {
		t.Fatalf("launch overhead %v, want %v", got, want)
	}
}

// TestPatchedReplayMatchesFreshCompile is the GraphExecUpdate acceptance
// check: patching an existing graph to a new byte split must be
// indistinguishable in simulated time — bit-for-bit, no tolerance — from
// compiling the new plan from scratch.
func TestPatchedReplayMatchesFreshCompile(t *testing.T) {
	planA := func() *core.Plan {
		return manualPlan(800,
			directPlanPath(0, 1, 400),
			stagedPlanPath(0, 2, 1, 400, 4, 0),
		)
	}
	planB := func() *core.Plan {
		return manualPlan(800,
			directPlanPath(0, 1, 300),
			stagedPlanPath(0, 2, 1, 500, 4, 0),
		)
	}

	// Fresh: compile plan B directly.
	s1, e1 := syntheticEngine(t, DefaultConfig())
	fresh, err := e1.Compile(planB())
	if err != nil {
		t.Fatal(err)
	}
	resFresh := runCompiled(t, s1, e1, fresh)

	// Patched: compile plan A, replay it once, then patch to plan B. The
	// staged share grows from 400 to 500 bytes, so this also exercises the
	// staging-ring reallocation path.
	s2, e2 := syntheticEngine(t, DefaultConfig())
	cp, err := e2.Compile(planA())
	if err != nil {
		t.Fatal(err)
	}
	runCompiled(t, s2, e2, cp)
	if err := cp.UpdateTo(planB()); err != nil {
		t.Fatal(err)
	}
	resPatched := runCompiled(t, s2, e2, cp)

	if got, want := resPatched.Elapsed(), resFresh.Elapsed(); got != want {
		t.Fatalf("patched elapsed %v != fresh elapsed %v", got, want)
	}
	for i := range resFresh.PathDone {
		fp := resFresh.PathDone[i] - resFresh.Started
		pp := resPatched.PathDone[i] - resPatched.Started
		if fp != pp {
			t.Fatalf("path %d: patched %v != fresh %v", i, pp, fp)
		}
	}
	cp.Release()
	fresh.Release()
}

func TestPatchableStructuralRules(t *testing.T) {
	base := manualPlan(800,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 400, 4, 0),
	)
	rebalanced := manualPlan(800,
		directPlanPath(0, 1, 200),
		stagedPlanPath(0, 2, 1, 600, 4, 0),
	)
	if !Patchable(base, rebalanced) {
		t.Error("byte rebalance should be patchable")
	}
	rechunked := manualPlan(800,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 400, 8, 0),
	)
	if Patchable(base, rechunked) {
		t.Error("chunk-count change should not be patchable")
	}
	deactivated := manualPlan(400,
		directPlanPath(0, 1, 400),
		stagedPlanPath(0, 2, 1, 0, 4, 0),
	)
	if Patchable(base, deactivated) {
		t.Error("path leaving the active set should not be patchable")
	}
	fewer := manualPlan(400, directPlanPath(0, 1, 400))
	if Patchable(base, fewer) {
		t.Error("path-list change should not be patchable")
	}
	if Patchable(nil, base) || Patchable(base, nil) {
		t.Error("nil plans should not be patchable")
	}

	_, e := syntheticEngine(t, DefaultConfig())
	cp, err := e.Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	if err := cp.UpdateTo(rechunked); err == nil {
		t.Error("UpdateTo accepted a structural change")
	}
	if cp.Plan() != base {
		t.Error("failed update must leave the encoded plan unchanged")
	}
}

func TestCompiledReleaseFreesStagingAndBlocksReplay(t *testing.T) {
	s, e := syntheticEngine(t, DefaultConfig())
	via := e.Runtime().Device(2)
	before := via.FreeMemory()
	cp, err := e.Compile(manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if via.FreeMemory() >= before {
		t.Fatal("compile did not hold staging memory")
	}
	runCompiled(t, s, e, cp)
	if via.FreeMemory() >= before {
		t.Fatal("staging ring must persist across replays")
	}
	cp.Release()
	cp.Release() // idempotent
	if via.FreeMemory() != before {
		t.Fatalf("staging memory leaked: %v -> %v", before, via.FreeMemory())
	}
	if _, err := e.ExecuteCompiled(cp); err == nil {
		t.Fatal("replay of a released plan accepted")
	}
	if err := cp.UpdateTo(manualPlan(400, stagedPlanPath(0, 2, 1, 400, 4, 0))); err == nil {
		t.Fatal("UpdateTo on a released plan accepted")
	}
}

func TestCompileRejectsInvalidPlans(t *testing.T) {
	_, e := syntheticEngine(t, DefaultConfig())
	if _, err := e.Compile(nil); err == nil {
		t.Error("nil plan compiled")
	}
	if _, err := e.Compile(&core.Plan{}); err == nil {
		t.Error("empty plan compiled")
	}
	if _, err := e.Compile(manualPlan(0, directPlanPath(0, 1, 0))); err == nil {
		t.Error("plan with no active bytes compiled")
	}
}

// presetEngine builds a fresh engine on a preset topology.
func presetEngine(t *testing.T, mk func() *hw.Spec, cfg Config) (*sim.Simulator, *Engine) {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, mk())
	if err != nil {
		t.Fatal(err)
	}
	return s, New(cuda.NewRuntime(node), cfg)
}

// modelPlan plans an n-byte GPU 0 → 1 transfer with the paper's model.
func modelPlan(t *testing.T, mk func() *hw.Spec, ps hw.PathSet, n float64) *core.Plan {
	t.Helper()
	_, e := presetEngine(t, mk, DefaultConfig())
	node := e.Runtime().Node()
	paths, err := node.Spec.EnumeratePaths(0, 1, ps)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewModel(core.SpecSource{Node: node}, core.DefaultOptions()).PlanTransfer(paths, n)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestCompiledMatchesEagerPerPath checks that both engines issue the same
// schedule: with ε zeroed and all paths initiated at once, the only
// difference left is the replay's one launch overhead, so every path
// completes at the same offset after it.
func TestCompiledMatchesEagerPerPath(t *testing.T) {
	pathSets := []struct {
		name string
		ps   hw.PathSet
	}{
		{"direct", hw.DirectOnly}, {"2gpus", hw.TwoGPUs}, {"3gpus", hw.ThreeGPUs},
		{"3gpus_host", hw.ThreeGPUsWithHost}, {"all", hw.AllPaths},
	}
	for _, cluster := range []string{"beluga", "narval"} {
		mk := hw.Presets[cluster]
		for _, ps := range pathSets {
			for _, slots := range []int{1, 2} {
				for _, n := range []float64{2 * hw.MiB, 32 * hw.MiB, 256 * hw.MiB} {
					pl := modelPlan(t, mk, ps.ps, n)
					for i := range pl.Paths {
						pl.Paths[i].Param.Eps = 0
					}
					cfg := Config{StagingSlots: slots}

					s, e := presetEngine(t, mk, cfg)
					eager := run(t, s, e, pl)

					s, e = presetEngine(t, mk, cfg)
					cp, err := e.Compile(pl)
					if err != nil {
						t.Fatal(err)
					}
					compiled := runCompiled(t, s, e, cp)
					overhead := cp.Exec().LaunchOverhead()
					cp.Release()

					for i := range pl.Paths {
						if pl.Paths[i].Bytes <= 0 {
							continue
						}
						want := eager.PathDone[i] - eager.Started
						got := compiled.PathDone[i] - compiled.Started - overhead
						if (overhead == 0 && got != want) || math.Abs(got-want) > 1e-12*want {
							t.Errorf("%s/%s slots=%d %v path %d (%v): compiled %v, eager %v (overhead %v)",
								cluster, ps.name, slots, n, i, pl.Paths[i].Path, got, want, overhead)
						}
					}
				}
			}
		}
	}
}

// TestZeroChunkStagedPlanRunsAsOneChunk: a staged path with Chunks: 0 (a
// custom planner can produce one) moves its share as a single chunk on
// both engines, and its staging ring is sized for that chunk, leaving the
// staging GPU's memory accounting intact.
func TestZeroChunkStagedPlanRunsAsOneChunk(t *testing.T) {
	plan := func(chunks int) *core.Plan {
		return manualPlan(400, stagedPlanPath(0, 2, 1, 400, chunks, 0))
	}
	elapsed := func(chunks int, compiled bool) float64 {
		s, e := syntheticEngine(t, DefaultConfig())
		via := e.Runtime().Device(2)
		before := via.FreeMemory()
		var res *Result
		if compiled {
			cp, err := e.Compile(plan(chunks))
			if err != nil {
				t.Fatal(err)
			}
			res = runCompiled(t, s, e, cp)
			cp.Release()
		} else {
			res = run(t, s, e, plan(chunks))
		}
		if after := via.FreeMemory(); after != before {
			t.Fatalf("chunks=%d compiled=%v: staging GPU free memory %v -> %v", chunks, compiled, before, after)
		}
		return res.Elapsed()
	}
	for _, compiled := range []bool{false, true} {
		if got, want := elapsed(0, compiled), elapsed(1, compiled); got != want {
			t.Errorf("compiled=%v: Chunks 0 took %v, Chunks 1 took %v", compiled, got, want)
		}
	}
}
