package cuda

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

func newSynthetic(t *testing.T) (*sim.Simulator, *Runtime) {
	t.Helper()
	s := sim.New()
	node, err := hw.Build(s, hw.Synthetic())
	if err != nil {
		t.Fatal(err)
	}
	return s, NewRuntime(node)
}

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestMallocFree(t *testing.T) {
	_, rt := newSynthetic(t)
	d := rt.Device(0)
	before := d.FreeMemory()
	b, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.FreeMemory() != before-1024 {
		t.Fatal("free memory not decremented")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if d.FreeMemory() != before {
		t.Fatal("free memory not restored")
	}
	if err := b.Free(); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestMallocOOM(t *testing.T) {
	_, rt := newSynthetic(t)
	d := rt.Device(0)
	if _, err := d.Malloc(d.FreeMemory() + 1); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if _, err := d.Malloc(-5); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestHostAlloc(t *testing.T) {
	_, rt := newSynthetic(t)
	h := rt.Host(0)
	b, err := h.MallocHost(4096)
	if err != nil {
		t.Fatal(err)
	}
	if h.Allocated() != 4096 {
		t.Fatal("host allocation not tracked")
	}
	if b.NUMA() != 0 || b.Size() != 4096 {
		t.Fatal("host buffer metadata wrong")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if h.Allocated() != 0 {
		t.Fatal("host allocation not released")
	}
}

// TestMallocRejectsNonFiniteSizes: a NaN or infinite size must fail
// without touching the accounting — a NaN subtracted from the free memory
// would disable out-of-memory detection for good.
func TestMallocRejectsNonFiniteSizes(t *testing.T) {
	_, rt := newSynthetic(t)
	d, h := rt.Device(0), rt.Host(0)
	free := d.FreeMemory()
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := d.Malloc(size); err == nil {
			t.Errorf("Malloc(%v) accepted", size)
		}
		if _, err := h.MallocHost(size); err == nil {
			t.Errorf("MallocHost(%v) accepted", size)
		}
	}
	if d.FreeMemory() != free || h.Allocated() != 0 {
		t.Fatalf("accounting moved: device free %v -> %v, host allocated %v", free, d.FreeMemory(), h.Allocated())
	}
	if _, err := d.Malloc(free + 1); err == nil {
		t.Fatal("over-allocation accepted after non-finite requests")
	}
}

func TestMemcpyPeerTiming(t *testing.T) {
	// Synthetic NVLink: 100 B/s, zero latency. 500 B should take 5 s.
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	sig := st.MemcpyPeerAsync(rt.Device(1), 500)
	var done sim.Time = -1
	sig.OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 5.0, 1e-9, "peer copy time")
}

func TestStreamSerializesOps(t *testing.T) {
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	var t1, t2 sim.Time
	st.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { t1 = s.Now() })
	st.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { t2 = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, t1, 1.0, 1e-9, "first copy")
	almost(t, t2, 2.0, 1e-9, "second copy (serialized)")
}

func TestIndependentStreamsShareLink(t *testing.T) {
	s, rt := newSynthetic(t)
	a := rt.Device(0).NewStream("a")
	b := rt.Device(0).NewStream("b")
	var ta, tb sim.Time
	a.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { ta = s.Now() })
	b.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { tb = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Same directed link shared: each gets 50 B/s → both end at t=2.
	almost(t, ta, 2.0, 1e-9, "stream a under contention")
	almost(t, tb, 2.0, 1e-9, "stream b under contention")
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	s, rt := newSynthetic(t)
	a := rt.Device(0).NewStream("a")
	b := rt.Device(1).NewStream("b")
	var ta, tb sim.Time
	a.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { ta = s.Now() })
	b.MemcpyPeerAsync(rt.Device(0), 100).OnFire(func() { tb = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, ta, 1.0, 1e-9, "forward direction")
	almost(t, tb, 1.0, 1e-9, "reverse direction")
}

func TestDisjointPathsDoNotContend(t *testing.T) {
	s, rt := newSynthetic(t)
	a := rt.Device(0).NewStream("a")
	b := rt.Device(2).NewStream("b")
	var ta, tb sim.Time
	a.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { ta = s.Now() })
	b.MemcpyPeerAsync(rt.Device(3), 100).OnFire(func() { tb = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, ta, 1.0, 1e-9, "path 0->1")
	almost(t, tb, 1.0, 1e-9, "path 2->3")
}

func TestEventOrdersStreams(t *testing.T) {
	// Stage through GPU2: copy 0->2 on s1, then 2->1 on s2 after event.
	s, rt := newSynthetic(t)
	s1 := rt.Device(0).NewStream("s1")
	s2 := rt.Device(2).NewStream("s2")
	s1.MemcpyPeerAsync(rt.Device(2), 300) // 3 s
	ev := s1.RecordEvent()
	s2.WaitEvent(ev)
	var done sim.Time
	s2.MemcpyPeerAsync(rt.Device(1), 300).OnFire(func() { done = s.Now() }) // 3 s more
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 6.0, 1e-9, "staged copy completes after both legs")
}

func TestWaitEventAlreadyFired(t *testing.T) {
	s, rt := newSynthetic(t)
	s1 := rt.Device(0).NewStream("s1")
	s2 := rt.Device(0).NewStream("s2")
	s1.MemcpyPeerAsync(rt.Device(1), 100)
	ev := s1.RecordEvent()
	var done sim.Time
	// Give s1 time to finish, then make s2 wait on the already-fired event.
	s.Schedule(5, func() {
		s2.WaitEvent(ev)
		s2.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { done = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 6.0, 1e-9, "copy after fired event")
}

func TestDelayOccupiesStream(t *testing.T) {
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	st.Delay(2.5)
	var done sim.Time
	st.MemcpyPeerAsync(rt.Device(1), 100).OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 3.5, 1e-9, "delay + copy")
}

func TestCopyLatencyApplied(t *testing.T) {
	// Beluga NVLink latency 2 µs, 48 GB/s. A 48 KB copy takes
	// 2e-6 + 48e3/48e9 = 3e-6 s.
	s := sim.New()
	node, err := hw.Build(s, hw.Beluga())
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(node)
	st := rt.Device(0).NewStream("s")
	var done sim.Time
	st.MemcpyPeerAsync(rt.Device(1), 48e3).OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 3e-6, 1e-12, "latency + transfer")
}

func TestHostCopyUsesMemChannel(t *testing.T) {
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	var done sim.Time
	// Synthetic PCIe 10 B/s: 100 B takes 10 s.
	st.MemcpyToHostAsync(0, 100).OnFire(func() { done = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, done, 10.0, 1e-9, "gpu->host copy")
	if rt.Node().MemLink(0).BytesCarried() != 100 {
		t.Fatal("memory channel did not carry the staged bytes")
	}
}

func TestMemcpyPeerNoLinkFails(t *testing.T) {
	s := sim.New()
	spec := hw.Synthetic()
	delete(spec.NVLink, hw.Pair{A: 0, B: 1})
	node, err := hw.Build(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(node)
	st := rt.Device(0).NewStream("s")
	sig := st.MemcpyPeerAsync(rt.Device(1), 100)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sig.Err() == nil {
		t.Fatal("copy without a peer link should fail")
	}
}

func TestIpcHandles(t *testing.T) {
	_, rt := newSynthetic(t)
	b, err := rt.Device(1).Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.IpcGetMemHandle(b)
	got, err := rt.IpcOpenMemHandle(h)
	if err != nil || got != b {
		t.Fatalf("IPC round trip failed: %v", err)
	}
	if _, err := rt.IpcOpenMemHandle(IpcHandle{}); err == nil {
		t.Fatal("unknown handle accepted")
	}
}

func TestStreamSynchronizeFromProcess(t *testing.T) {
	s, rt := newSynthetic(t)
	st := rt.Device(0).NewStream("s")
	var at sim.Time
	s.Spawn("sync", func(p *sim.Proc) {
		st.MemcpyPeerAsync(rt.Device(1), 400)
		if err := st.Synchronize(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	almost(t, at, 4.0, 1e-9, "synchronize returns at completion")
}

func TestPipelinedStagingOverlap(t *testing.T) {
	// Two chunks staged through GPU2 with events: leg1 chunk2 overlaps
	// leg2 chunk1. Synthetic: each 100 B chunk takes 1 s per leg.
	s, rt := newSynthetic(t)
	s1 := rt.Device(0).NewStream("s1")
	s2 := rt.Device(2).NewStream("s2")
	var done sim.Time
	for c := 0; c < 2; c++ {
		s1.MemcpyPeerAsync(rt.Device(2), 100)
		ev := s1.RecordEvent()
		s2.WaitEvent(ev)
		sig := s2.MemcpyPeerAsync(rt.Device(1), 100)
		if c == 1 {
			sig.OnFire(func() { done = s.Now() })
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// t=1: chunk1 at GPU2; t=2: chunk2 at GPU2 and chunk1 at GPU1;
	// t=3: chunk2 delivered. Without pipelining it would be 4 s.
	almost(t, done, 3.0, 1e-9, "pipelined staging")
}
