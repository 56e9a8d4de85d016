package ucx

import (
	"testing"

	"repro/internal/hw"
)

func graphsConfig() Config {
	cfg := DefaultConfig()
	cfg.GraphsEnable = true
	return cfg
}

func TestGraphsWarmPutHashToReplay(t *testing.T) {
	s, ctx := newCtx(t, graphsConfig())
	ep := endpoint(t, ctx, 0, 1)

	put := func() {
		t.Helper()
		req, err := ep.Put(64 * hw.MiB)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if err := req.Done.Err(); err != nil {
			t.Fatal(err)
		}
	}

	put()
	st := ctx.GraphStats()
	if st.Misses != 1 || st.Compiles != 1 || st.Replays != 1 {
		t.Fatalf("cold put: %+v, want 1 miss / 1 compile / 1 replay", st)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count = %d, want 1", ctx.GraphCount())
	}

	// Warm put: the plan cache returns the identical plan, so the graph
	// path is hash → hit → replay, with no compile and no patch.
	put()
	st = ctx.GraphStats()
	if st.Hits != 1 || st.Compiles != 1 || st.Replays != 2 || st.Patches != 0 {
		t.Fatalf("warm put: %+v, want 1 hit / 1 compile / 2 replays / 0 patches", st)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count after warm put = %d, want 1", ctx.GraphCount())
	}
}

func TestGraphsDisabledNoActivity(t *testing.T) {
	s, ctx := newCtx(t, DefaultConfig())
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st != (GraphStats{}) {
		t.Fatalf("graphs disabled but stats = %+v", st)
	}
	if ctx.GraphCount() != 0 {
		t.Fatalf("graphs disabled but %d graphs retained", ctx.GraphCount())
	}
}

func TestGraphsFaultInvalidatesAll(t *testing.T) {
	s, ctx := newCtx(t, graphsConfig())
	ep := endpoint(t, ctx, 0, 1)
	if _, err := ep.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count = %d, want 1", ctx.GraphCount())
	}

	ctx.NotifyFault()
	if ctx.GraphCount() != 0 {
		t.Fatalf("fault left %d graphs cached", ctx.GraphCount())
	}
	st := ctx.GraphStats()
	if st.Invalidations < 1 {
		t.Fatalf("invalidations = %d, want ≥ 1", st.Invalidations)
	}

	// The next put re-plans and recompiles.
	if _, err := ep.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Compiles < 2 {
		t.Fatalf("compiles after fault = %d, want ≥ 2", st.Compiles)
	}
}

func TestGraphsFailoverInvalidatesExactlyAffected(t *testing.T) {
	// Two independent transfers cache two graphs; excluding a path used
	// only by the first must drop exactly that graph.
	s, ctx := newCtx(t, graphsConfig())
	epA := endpoint(t, ctx, 0, 1)
	epB := endpoint(t, ctx, 2, 3)
	for _, ep := range []*Endpoint{epA, epB} {
		if _, err := ep.Put(64 * hw.MiB); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if ctx.GraphCount() != 2 {
		t.Fatalf("graph count = %d, want 2", ctx.GraphCount())
	}

	ctx.invalidateGraphsFor(map[hw.Path]bool{
		{Kind: hw.Direct, Src: 0, Dst: 1}: true,
	})
	if ctx.GraphCount() != 1 {
		t.Fatalf("graph count after exclusion = %d, want 1", ctx.GraphCount())
	}
	if st := ctx.GraphStats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want exactly 1", st.Invalidations)
	}

	// The untouched pair replays warm; the excluded pair recompiles.
	before := ctx.GraphStats()
	if _, err := epB.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Hits != before.Hits+1 || st.Compiles != before.Compiles {
		t.Fatalf("unaffected pair not served warm: before %+v after %+v", before, st)
	}
	if _, err := epA.Put(64 * hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := ctx.GraphStats(); st.Compiles != before.Compiles+1 {
		t.Fatalf("excluded pair not recompiled: before %+v after %+v", before, st)
	}
}

func TestGraphsFailoverTransferSurvives(t *testing.T) {
	// A staging link dies mid-transfer with graphs enabled: the transfer
	// must still complete (graph failures fall back to eager execution,
	// failover re-plans), and the failover must invalidate cached graphs
	// routing over the dead link.
	cfg := graphsConfig()
	s, node, ctx := newFaultCtx(t, hw.Narval(), cfg)
	failAt(t, s, node, hw.NVLinkRef(0, 2), 100e-6)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatalf("transfer failed despite failover: %v", err)
	}
	if req.Failovers < 1 {
		t.Fatalf("failovers = %d, want ≥ 1", req.Failovers)
	}
	st := ctx.GraphStats()
	if st.Invalidations < 1 {
		t.Fatalf("failover did not invalidate graphs: %+v", st)
	}
	for _, pp := range req.Plan.ActivePaths() {
		if pp.Path.Kind == hw.GPUStaged && pp.Path.Via == 2 {
			t.Fatalf("final plan still uses failed staging GPU 2: %+v", pp.Path)
		}
	}
}

func TestGraphsAdaptiveFeederPatches(t *testing.T) {
	// The adaptive executor's pool chunks repeat the same path structure
	// with (mostly) the same byte counts, so after the first chunk the
	// feeder's private graph is patched in place, not recompiled.
	cfg := graphsConfig()
	cfg.AdaptSegments = 8
	cfg.AdaptMinBytes = 4 * hw.MiB
	s, _, ctx := newFaultCtx(t, hw.Narval(), cfg)
	ep := endpoint(t, ctx, 0, 1)
	req, err := ep.Put(64 * hw.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := req.Done.Err(); err != nil {
		t.Fatal(err)
	}
	st := ctx.GraphStats()
	if st.Replays < 2 {
		t.Fatalf("adaptive run replayed %d graphs, want ≥ 2", st.Replays)
	}
	if st.Patches < 1 {
		t.Fatalf("adaptive run patched %d graphs, want ≥ 1 (stats %+v)", st.Patches, st)
	}
}
