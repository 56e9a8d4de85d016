package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	multipath "repro"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/serve"
	v1 "repro/internal/serve/v1"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// The traced run replays sampled operations down the stack, one public
// entry point per layer, timing each call from outside. A layer's self
// time is its time minus the next layer's time on the same inputs.

// span is one timed call into a layer. Spans of one replayed operation
// share Trace; Parent is the span of the layer above.
type span struct {
	Trace   int                `json:"trace"`
	ID      int                `json:"id"`
	Parent  int                `json:"parent,omitempty"`
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	DurUS   float64            `json:"dur_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// maxStepSpans caps the spans the traced loop records per run (one per
// step), so a fast workload's spans file stays a few megabytes.
const maxStepSpans = 1 << 14

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// steps counts the loop's step spans, recorded or not.
	steps int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// add records a span and returns its ID.
func (r *recorder) add(trace, parent int, name string, start time.Time, d time.Duration, attrs map[string]float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(r.t0).Nanoseconds()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3, Attrs: attrs})
	return id
}

// addStep records a loop step's span and its transfer's, until
// maxStepSpans steps have been recorded.
func (r *recorder) addStep(trace int, start time.Time, xfer string, xferStart time.Time) {
	r.mu.Lock()
	r.steps++
	full := r.steps > maxStepSpans
	r.mu.Unlock()
	if full {
		return
	}
	id := r.add(trace, 0, "step", start, time.Since(start), nil)
	if xfer != "" {
		r.add(trace, id, xfer, xferStart, time.Since(xferStart), nil)
	}
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measured is the mean cost of one call.
type measured struct {
	start  time.Time
	total  time.Duration // all repetitions
	reps   int
	per    float64 // seconds per call
	allocs float64 // heap allocations per call
}

// minReplay is how long each layer's calls repeat, so short calls are
// timed over many repetitions.
const minReplay = 20 * time.Millisecond

// timeCalls repeats setup (untimed) then call (timed) until minReplay of
// timed work has accumulated, at least three times.
func timeCalls(setup func() error, call func() error) (measured, error) {
	m := measured{start: time.Now()}
	var allocs uint64
	for m.reps < 3 || m.total < minReplay {
		if setup != nil {
			if err := setup(); err != nil {
				return m, err
			}
		}
		a0 := readMetric(allocMetric)
		t0 := time.Now()
		err := call()
		m.total += time.Since(t0)
		allocs += readMetric(allocMetric) - a0
		if err != nil {
			return m, err
		}
		m.reps++
	}
	m.per = m.total.Seconds() / float64(m.reps)
	m.allocs = float64(allocs) / float64(m.reps)
	return m, nil
}

// replayRounds is how many times the layers of one sample are timed in
// turn.
const replayRounds = 3

// step is one layer's replay: setup runs untimed before each call.
type step struct {
	setup, call func() error
}

// timeRounds times the steps in turn, replayRounds times over, and keeps
// each step's fastest round. Interference from outside the process only
// adds time, so the minimum is the steadiest estimate of a layer's own
// cost, and alternating the layers exposes them alike to drift.
func timeRounds(steps []step) ([]measured, error) {
	best := make([]measured, len(steps))
	for round := 0; round < replayRounds; round++ {
		for i, st := range steps {
			m, err := timeCalls(st.setup, st.call)
			if err != nil {
				return nil, err
			}
			if round == 0 || m.per < best[i].per {
				best[i] = m
			}
		}
	}
	return best, nil
}

// layerMetrics replays the samples and derives every per-layer metric.
func (b *bench) layerMetrics(rec *recorder, t *tally) (map[string]float64, error) {
	out := map[string]float64{}
	if err := b.planLayers(rec, out); err != nil {
		return nil, fmt.Errorf("plan-path replay: %w", err)
	}
	if err := b.xferLayers(rec, out); err != nil {
		return nil, fmt.Errorf("transfer-path replay: %w", err)
	}
	cs := t.cache
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		out["core.hit_ratio"] = float64(cs.Hits) / float64(lookups)
		out["core.evictions_per_plan"] = float64(cs.Evictions) / float64(lookups)
	}
	out["core.inflight_merges"] = float64(cs.InflightMerges)
	if t.puts > 0 {
		out["ucx.retries_per_put"] = float64(t.retries) / float64(t.puts)
		out["ucx.failovers_per_put"] = float64(t.failovers) / float64(t.puts)
	}
	if n := t.planHits + t.planMisses; n > 0 {
		out["ucx.plan_hit_ratio"] = float64(t.planHits) / float64(n)
	}
	return out, nil
}

// planSample is one plan request replayed layer by layer.
type planSample struct {
	path  string
	body  []byte
	items []v1.BatchItem
}

func (b *bench) planSamples() []planSample {
	if len(b.batchBodies) > 0 {
		var out []planSample
		for k := 0; k < 2; k++ {
			out = append(out, planSample{"/v1/batch", b.batchBodies[0][k], b.in.hotBatch(0, k)})
		}
		return out
	}
	var items []v1.BatchItem
	if len(b.in.ColdKeys) > 0 {
		items = b.in.ColdKeys[:16]
	} else {
		for i := 0; i < 16 && i < len(b.in.Xfers); i++ {
			items = append(items, b.in.Xfers[i].planItem())
		}
	}
	var out []planSample
	for _, it := range items {
		out = append(out, planSample{"/v1/plan", planBody(it), []v1.BatchItem{it}})
	}
	return out
}

// planLayers replays plan requests through serve (socket, in-process
// handler), then all their items through ucx (PlanForSet), hw
// (EnumeratePaths) and core (PlanTransfer), then times cache misses on a
// private model and hot reloads on a private registry.
func (b *bench) planLayers(rec *recorder, out map[string]float64) error {
	var reqs, reqBytes, respBytes, socket, handlerSec, handlerAllocs float64
	var all []v1.BatchItem
	handler := b.ps.srv.Handler()
	for k, s := range b.planSamples() {
		rt, err := timeCalls(nil, func() error {
			_, err := b.ps.do(http.MethodPost, s.path, s.body)
			return err
		})
		if err != nil {
			return err
		}
		var w *httptest.ResponseRecorder
		var r *http.Request
		prep := func() error {
			w = httptest.NewRecorder()
			r = httptest.NewRequest(http.MethodPost, s.path, bytes.NewReader(s.body))
			return nil
		}
		h, err := timeCalls(prep, func() error {
			handler.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				return fmt.Errorf("in-process %s: status %d", s.path, w.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		attrs := map[string]float64{"plans": float64(len(s.items))}
		id := rec.add(1_000_000_000+k, 0, "serve.socket", rt.start, rt.total, attrs)
		rec.add(1_000_000_000+k, id, "serve.handler", h.start, h.total, attrs)
		reqs++
		reqBytes += float64(len(s.body))
		respBytes += float64(w.Body.Len())
		socket += rt.per - h.per
		handlerSec += h.per
		handlerAllocs += h.allocs
		all = append(all, s.items...)
	}
	plans := float64(len(all))
	items, err := b.resolveItems(all)
	if err != nil {
		return err
	}
	each := func(call func(it *resolvedItem) error) step {
		return step{call: func() error {
			for k := range items {
				if err := call(&items[k]); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	med, err := timeRounds([]step{
		each(func(it *resolvedItem) error {
			_, err := it.ctx.PlanForSet(it.Src, it.Dst, it.Bytes, it.sel, nil)
			return err
		}),
		each(func(it *resolvedItem) error {
			_, err := it.spec.EnumeratePaths(it.Src, it.Dst, it.sel)
			return err
		}),
		each(func(it *resolvedItem) error {
			_, err := it.ctx.Model().PlanTransfer(it.paths, it.Bytes)
			return err
		}),
	})
	if err != nil {
		return err
	}
	for i, name := range []string{"ucx.planfor", "hw.enumerate", "core.plan"} {
		rec.add(1_500_000_000, 0, name, med[i].start, med[i].total, map[string]float64{"plans": plans})
	}
	ucxPer, enumPer, corePer := med[0].per/plans, med[1].per/plans, med[2].per/plans
	out["serve.socket_us"] = socket / reqs * 1e6
	out["serve.handler_self_us"] = (handlerSec - plans*ucxPer) / reqs * 1e6
	out["serve.req_bytes_per_plan"] = reqBytes / plans
	out["serve.resp_bytes_per_plan"] = respBytes / plans
	out["serve.allocs_per_plan"] = handlerAllocs / plans
	out["ucx.planfor_ns"] = ucxPer * 1e9
	out["ucx.planfor_self_ns"] = (ucxPer - enumPer - corePer) * 1e9
	out["ucx.planfor_allocs"] = med[0].allocs / plans
	out["hw.enumerate_ns"] = enumPer * 1e9
	out["hw.enumerate_allocs"] = med[1].allocs / plans
	out["core.hit_ns"] = corePer * 1e9

	// Misses: distinct sizes on a private model, so every lookup solves.
	spec, err := topology("narval")
	if err != nil {
		return err
	}
	node, err := hw.Build(sim.New(), spec)
	if err != nil {
		return err
	}
	model := core.NewModel(core.SpecSource{Node: node}, ucx.DefaultConfig().ModelOptions)
	paths, err := node.Spec.EnumeratePaths(0, 1, hw.ThreeGPUsWithHost)
	if err != nil {
		return err
	}
	size := float64(64 * hw.MiB)
	miss, err := timeCalls(nil, func() error {
		size += 256
		_, err := model.PlanTransfer(paths, size)
		return err
	})
	if err != nil {
		return err
	}
	out["core.miss_ns"] = miss.per * 1e9
	rec.add(2_000_000_000, 0, "core.miss", miss.start, miss.total, nil)

	reg := serve.NewRegistry(serve.DefaultTenantConfig())
	var reload float64
	for _, c := range clusterNames {
		r, err := timeCalls(nil, func() error {
			_, err := reg.RegisterJSON(c, bytes.NewReader(b.ps.specJSON[c]))
			return err
		})
		if err != nil {
			return err
		}
		reload += r.per / float64(len(clusterNames))
		rec.add(2_000_000_001, 0, "serve.reload", r.start, r.total, map[string]float64{"reps": float64(r.reps)})
	}
	out["serve.reload_ms"] = reload * 1e3
	return nil
}

// resolvedItem is a plan query bound to the live tenant that serves it.
type resolvedItem struct {
	v1.BatchItem
	ctx   *ucx.Context
	spec  *hw.Spec
	sel   hw.PathSet
	paths []hw.Path
}

func (b *bench) resolveItems(items []v1.BatchItem) ([]resolvedItem, error) {
	out := make([]resolvedItem, len(items))
	for i, it := range items {
		t, ok := b.ps.reg.Lookup(it.Cluster)
		if !ok {
			return nil, fmt.Errorf("cluster %q is not registered", it.Cluster)
		}
		sel, err := ucx.PathSetByName(it.PathSet)
		if err != nil {
			return nil, err
		}
		paths, err := t.Spec().EnumeratePaths(it.Src, it.Dst, sel)
		if err != nil {
			return nil, err
		}
		out[i] = resolvedItem{BatchItem: it, ctx: t.Context(), spec: t.Spec(), sel: sel, paths: paths}
	}
	return out, nil
}

// put is one message of a transfer operation.
type put struct {
	src, dst int
	bytes    float64
}

// iterRounds lists the Puts of one iteration of op, as rounds of
// concurrent Puts: the window of a bandwidth test, or the exchanges of one
// collective step. Zero-byte control messages (acks, barriers) issue no
// Put.
func (op *xferOp) iterRounds() [][]put {
	var out [][]put
	switch op.Kind {
	case "put":
		out = [][]put{{{op.Src, op.Dst, op.Bytes}}}
	case "bw", "bibw":
		var round []put
		for k := 0; k < op.Window; k++ {
			round = append(round, put{op.Src, op.Dst, op.Bytes})
			if op.Kind == "bibw" {
				round = append(round, put{op.Dst, op.Src, op.Bytes})
			}
		}
		out = append(out, round)
	case "allreduce":
		// Recursive halving reduce-scatter, then recursive doubling
		// allgather, as mpi.Rank.Allreduce.
		size := op.ranks()
		var masks []int
		for m := size / 2; m >= 1; m >>= 1 {
			masks = append(masks, m)
		}
		for m := 1; m < size; m <<= 1 {
			masks = append(masks, m)
		}
		for _, m := range masks {
			var round []put
			for r := 0; r < size; r++ {
				round = append(round, put{r, r ^ m, op.Bytes * float64(m) / float64(size)})
			}
			out = append(out, round)
		}
	case "alltoall":
		// Bruck rounds, as mpi.Rank.Alltoall.
		size := op.ranks()
		for k := 1; k < size; k <<= 1 {
			blocks := 0
			for j := 1; j < size; j++ {
				if j&k != 0 {
					blocks++
				}
			}
			var round []put
			for r := 0; r < size; r++ {
				round = append(round, put{r, (r + k) % size, op.Bytes * float64(blocks)})
			}
			out = append(out, round)
		}
	}
	return out
}

// xferLayers replays the sampled transfers layer by layer. The MPI run is
// captured once with the transport's tracer on, which yields every Put
// with its simulated issue time; each lower layer then repeats exactly the
// work the layer above handed it, at the same simulated instants:
//
//	mpi      the OSU operation on an MPI world
//	ucx      the captured Puts, issued on endpoints
//	pipeline each Put's plan, executed by a pipeline engine
//	cuda     each plan's chunk copies on CUDA streams
//	fluid    the same copies as raw flows, sequenced by simulator events
//	sim      as many empty events as the fluid replay ran
//
// Below ucx the machine is healthy: fault handling is ucx's own work and
// lands in its self time.
func (b *bench) xferLayers(rec *recorder, out map[string]float64) error {
	var ops, puts, events, flowEvents float64
	var mpiSec, ucxSec, pipeSec, cudaSec, fluidSec, simSec float64
	busy := map[string]float64{}
	span := map[string]float64{}
	for k, idx := range b.in.XferSample {
		op := &b.in.Xfers[idx]
		trace := 3_000_000_000 + k
		captured, err := capturePuts(op)
		if err != nil {
			return err
		}
		if want := b.book.reps[idx][0].Stats.Puts; int64(len(captured.puts)) != want {
			return fmt.Errorf("%s %s: captured %d Puts, the timed run issued %d", op.Cluster, op.Kind, len(captured.puts), want)
		}
		for _, l := range captured.sys.Node.Net.Links() {
			class := linkClass(l.Name())
			busy[class] += l.BusyTime()
			span[class] += captured.sys.Sim.Now()
		}

		var sys *multipath.System
		build := func() (err error) { sys, err = newSystem(op); return err }
		var planned []plannedPut
		plan := func() (err error) {
			if sys, err = newSystem(op); err != nil {
				return err
			}
			planned, err = planPuts(sys, op, captured.puts)
			return err
		}
		var executed, fe uint64
		counted := func(n *uint64, call func() error) func() error {
			return func() error {
				before := sys.Sim.Executed()
				err := call()
				*n = sys.Sim.Executed() - before
				return err
			}
		}
		m, err := timeRounds([]step{
			{build, func() error { return runMPI(sys, op) }},
			{build, counted(&executed, func() error { return replayPuts(sys, captured.puts) })},
			{plan, func() error { return executePlans(sys, planned) }},
			{plan, func() error { return issuePlans(sys, planned, cudaLanes(sys)) }},
			{plan, counted(&fe, func() error { return issuePlans(sys, planned, fluidLanes(sys)) })},
			{nil, func() error { return runEvents(int(fe)) }},
		})
		if err != nil {
			return err
		}
		mp, u, p, c, f, ev := m[0], m[1], m[2], m[3], m[4], m[5]

		attrs := map[string]float64{"puts": float64(len(captured.puts)), "bytes": op.Bytes}
		id := rec.add(trace, 0, "mpi.op", mp.start, mp.total, attrs)
		id = rec.add(trace, id, "ucx.put", u.start, u.total, attrs)
		id = rec.add(trace, id, "pipeline.execute", p.start, p.total, attrs)
		id = rec.add(trace, id, "cuda.copy", c.start, c.total, attrs)
		id = rec.add(trace, id, "fluid.flow", f.start, f.total, attrs)
		rec.add(trace, id, "sim.events", ev.start, ev.total, map[string]float64{"events": float64(fe)})

		ops++
		puts += float64(len(captured.puts))
		events += float64(executed)
		flowEvents += float64(fe)
		mpiSec += mp.per
		ucxSec += u.per
		pipeSec += p.per
		cudaSec += c.per
		fluidSec += f.per
		simSec += ev.per
	}
	out["mpi.op_host_us"] = mpiSec / ops * 1e6
	out["mpi.self_us"] = (mpiSec - ucxSec) / ops * 1e6
	out["ucx.put_host_us"] = ucxSec / puts * 1e6
	out["ucx.self_us"] = (ucxSec - pipeSec) / puts * 1e6
	out["pipeline.exec_host_us"] = pipeSec / puts * 1e6
	out["pipeline.self_us"] = (pipeSec - cudaSec) / puts * 1e6
	out["cuda.copy_host_us"] = cudaSec / puts * 1e6
	out["cuda.self_us"] = (cudaSec - fluidSec) / puts * 1e6
	out["fluid.flow_host_us"] = fluidSec / puts * 1e6
	out["fluid.self_us"] = (fluidSec - simSec) / puts * 1e6
	out["sim.events_per_put"] = events / puts
	out["sim.event_host_ns"] = simSec / flowEvents * 1e9
	for _, class := range []string{"nvlink", "pcie", "mem", "upi"} {
		if span[class] > 0 {
			out["fluid.busy_frac."+class] = busy[class] / span[class]
		}
	}
	return nil
}

// linkClass maps a fluid link name (hw.BuildInto's naming) to its class.
func linkClass(name string) string {
	switch {
	case strings.HasPrefix(name, "nvlink"):
		return "nvlink"
	case strings.HasPrefix(name, "pcie"):
		return "pcie"
	case strings.HasPrefix(name, "mem"):
		return "mem"
	default:
		return "upi"
	}
}

// runEvents runs n empty events on a fresh simulator, eight chains deep,
// to price the event loop alone.
func runEvents(n int) error {
	s := sim.New()
	const chains = 8
	left := n
	var step func()
	step = func() {
		if left--; left >= chains {
			s.Schedule(1e-9, step)
		}
	}
	for i := 0; i < chains && i < n; i++ {
		s.Schedule(float64(i)*1e-10, step)
	}
	return s.Run()
}
