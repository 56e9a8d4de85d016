package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/omb"
	"repro/internal/serve"
	v1 "repro/internal/serve/v1"
)

// bench is one workload's set-up state: the plan server, the reference
// planners, the generated inputs and the record of transfer results.
type bench struct {
	in      *inputs
	clients int
	ps      *planServer
	ref     *reference
	book    *xferBook
	// batchBodies are plan_hot's pre-encoded requests, per client.
	batchBodies [][][]byte

	// tenantsMu guards tenants: every tenant generation that served,
	// whose plan-cache statistics feed core.*.
	tenantsMu sync.Mutex
	tenants   []*serve.Tenant
}

// newBench does everything that precedes the first timed operation:
// tenant registration, server start, reference planners, request encoding
// and warm-up (the plans the timed phase repeats are cached), and the first
// machine and MPI world builds.
func newBench(in *inputs, clients int) (_ *bench, err error) {
	b := &bench{in: in, clients: clients, book: newXferBook(len(in.Xfers))}
	if b.ps, err = startPlanServer(clients); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.ref, err = newReference(); err != nil {
		return nil, err
	}
	for c := range in.HotOffsets {
		var bodies [][]byte
		for k := 0; k < batchRing; k++ {
			body, err := json.Marshal(v1.BatchRequest{Items: in.hotBatch(c, k)})
			if err != nil {
				return nil, err
			}
			// Warm-up: one pass over every batch caches each key.
			if _, err := b.ps.do(http.MethodPost, "/v1/batch", body); err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
		b.batchBodies = append(b.batchBodies, bodies)
	}
	// Warm-up: each cluster's most popular plan_cold keys, as many as its
	// tenant's plan cache holds, so timing starts with both caches full.
	warmed := map[string]int{}
	for _, it := range in.ColdKeys {
		if warmed[it.Cluster] == core.DefaultCacheCapacity {
			continue
		}
		warmed[it.Cluster]++
		if _, err := b.ps.do(http.MethodPost, "/v1/plan", planBody(it)); err != nil {
			return nil, err
		}
	}
	// Warm-up: every plan the transfers ask for, then a first MPI world on
	// each cluster.
	for i := range in.Xfers {
		for _, it := range in.Xfers[i].planItems() {
			if _, err := b.ps.do(http.MethodPost, "/v1/plan", planBody(it)); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range clusterNames {
		op := xferOp{Cluster: c, PathSet: "all"}
		sys, err := newSystem(&op)
		if err == nil {
			_, err = mpi.NewWorld(sys.Ctx, 4, mpi.DefaultOptions())
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *bench) close() { b.ps.close() }

// noteTenants records the registry's current tenants.
func (b *bench) noteTenants() {
	b.tenantsMu.Lock()
	defer b.tenantsMu.Unlock()
	for _, c := range clusterNames {
		if t, ok := b.ps.reg.Lookup(c); ok {
			seen := false
			for _, old := range b.tenants {
				seen = seen || old == t
			}
			if !seen {
				b.tenants = append(b.tenants, t)
			}
		}
	}
}

// cacheStats sums the plan-cache statistics of every tenant seen.
func (b *bench) cacheStats() core.CacheStats {
	b.tenantsMu.Lock()
	defer b.tenantsMu.Unlock()
	var s core.CacheStats
	for _, t := range b.tenants {
		st := t.Context().Model().Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Evictions += st.Evictions
		s.InflightMerges += st.InflightMerges
	}
	return s
}

// tally is what the closed loop measured.
type tally struct {
	// cpu is the CPU time the process was given during the loop, in
	// seconds: throughputs are per CPU second, so time a shared host
	// withholds from the process (steal) does not count as work.
	cpu       float64
	steps     int64
	attempted int64
	failed    int64
	firstErr  error
	plans     int64
	// lat holds the plan workloads' round trips, one per plan request: the
	// process CPU time spent while it was out, over the number of clients.
	// Every client is busy all the time, so this is the round trip's share
	// of the CPUs, which time the host withholds (steal) does not inflate.
	lat latencies
	// opSteps holds the sweeps' step times per operation of the transfer
	// list (process CPU time); planCPU and xferCPU split the sweeps' CPU
	// time between the plan requests and the operations.
	opSteps          [][]float64
	planCPU, xferCPU float64
	// recordSec is the time spent adding spans to the recorder, stepSec
	// the time of the traced steps themselves (both wall time).
	recordSec, stepSec float64
	// Transfer-context counters summed over every operation run.
	puts, retries, failovers, planHits, planMisses int64
	// cache is the tenants' plan-cache activity during the loop.
	cache core.CacheStats
	// Sampled plan responses, checked against the reference after timing.
	singles []sampledPlan
	batches []sampledBatch
}

type sampledPlan struct {
	item v1.BatchItem
	body []byte
}

type sampledBatch struct {
	items []v1.BatchItem
	resp  v1.BatchResponse
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.steps += o.steps
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.plans += o.plans
	t.cpu += o.cpu
	t.lat.merge(&o.lat)
	for i, xs := range o.opSteps {
		t.addOpSteps(i, xs...)
	}
	t.planCPU += o.planCPU
	t.xferCPU += o.xferCPU
	t.recordSec += o.recordSec
	t.stepSec += o.stepSec
	t.puts += o.puts
	t.retries += o.retries
	t.failovers += o.failovers
	t.planHits += o.planHits
	t.planMisses += o.planMisses
	t.cache.Hits += o.cache.Hits
	t.cache.Misses += o.cache.Misses
	t.cache.Evictions += o.cache.Evictions
	t.cache.InflightMerges += o.cache.InflightMerges
	t.singles = append(t.singles, o.singles...)
	t.batches = append(t.batches, o.batches...)
}

func (t *tally) addOpSteps(op int, xs ...float64) {
	for len(t.opSteps) <= op {
		t.opSteps = append(t.opSteps, nil)
	}
	t.opSteps[op] = append(t.opSteps[op], xs...)
}

// opSamples counts the sweeps' step times.
func (t *tally) opSamples() int {
	n := 0
	for _, xs := range t.opSteps {
		n += len(xs)
	}
	return n
}

// loop runs the closed loop: every client sends its next request as soon
// as the previous step (plan answer, then any transfer it triggers) is
// done, until d has passed. rec, when non-nil, records a span per step.
func (b *bench) loop(d time.Duration, rec *recorder) *tally {
	b.noteTenants()
	base := b.cacheStats()
	tallies := make([]tally, b.clients)
	cpu0 := cpuSeconds()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.client(c, deadline, rec, &tallies[c])
		}(c)
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	total.cpu = cpuSeconds() - cpu0
	b.noteTenants()
	end := b.cacheStats()
	total.cache = core.CacheStats{
		Hits:           end.Hits - base.Hits,
		Misses:         end.Misses - base.Misses,
		Evictions:      end.Evictions - base.Evictions,
		InflightMerges: end.InflightMerges - base.InflightMerges,
	}
	return total
}

// client runs one caller until the deadline.
func (b *bench) client(c int, deadline time.Time, rec *recorder, t *tally) {
	var cold *coldStream
	if b.in.Workload == "plan_cold" {
		cold = newColdStream(b.in, c)
	}
	plansSincePut := 0
	sweep := b.in.Workload == "p2p_sweep" || b.in.Workload == "contended"
	for i := 0; time.Now().Before(deadline); i++ {
		stepStart := time.Now()
		var cpu0 float64
		if sweep {
			cpu0 = cpuSeconds()
		}
		t.steps++
		var xfer = -1
		switch b.in.Workload {
		case "plan_hot":
			c0 := cpuSeconds()
			if b.hotStep(c, i, t) {
				t.lat.add((cpuSeconds() - c0) / float64(b.clients))
			}
			xfer = i % len(b.in.Xfers)
		case "plan_cold":
			if c == 0 && i%coldReloadEvery == coldReloadEvery-1 {
				b.reload(clusterNames[(i/coldReloadEvery)%len(clusterNames)], t)
				break
			}
			c0 := cpuSeconds()
			if b.planStep(cold.next(), i%coldPutEvery == 0 && len(t.singles) < coldSamples, t) {
				t.lat.add((cpuSeconds() - c0) / float64(b.clients))
			}
			if plansSincePut++; plansSincePut == coldPutEvery {
				plansSincePut = 0
				xfer = (i / coldPutEvery) % len(b.in.Xfers)
			}
		default:
			xfer = i % len(b.in.Xfers)
			for _, it := range b.in.Xfers[xfer].planItems() {
				b.planStep(it, i < len(b.in.Xfers), t)
			}
		}
		var cpuPlanned float64
		if sweep {
			cpuPlanned = cpuSeconds()
		}
		var xferStart time.Time
		if xfer >= 0 {
			xferStart = time.Now()
			b.xferStep(xfer, t)
		}
		if sweep {
			// A sweep caller's round trip is its whole step: the plans
			// and the operation they are for, in process CPU time. The
			// caller is the only client, so that time is the step's.
			end := cpuSeconds()
			t.planCPU += cpuPlanned - cpu0
			t.xferCPU += end - cpuPlanned
			t.addOpSteps(xfer, end-cpu0)
		}
		if rec != nil {
			name := ""
			if xfer >= 0 {
				name = "xfer." + b.in.Xfers[xfer].Kind
			}
			r0 := time.Now()
			rec.addStep(c*1_000_000+i, stepStart, name, xferStart)
			t.recordSec += time.Since(r0).Seconds()
			t.stepSec += r0.Sub(stepStart).Seconds()
		}
	}
}

// hotStep sends client c's next pre-encoded batch and reports whether it
// succeeded.
func (b *bench) hotStep(c, i int, t *tally) bool {
	k := i % batchRing
	t.attempted++
	out, err := b.ps.do(http.MethodPost, "/v1/batch", b.batchBodies[c][k])
	var resp v1.BatchResponse
	if err == nil {
		err = json.Unmarshal(out, &resp)
	}
	if err == nil && (resp.Failed > 0 || len(resp.Results) != batchItems) {
		err = fmt.Errorf("batch: %d of %d items failed, %d results", resp.Failed, batchItems, len(resp.Results))
	}
	if err != nil {
		t.fail(err)
		return false
	}
	t.plans += batchItems
	if i < hotSamples {
		t.batches = append(t.batches, sampledBatch{items: b.in.hotBatch(c, k), resp: resp})
	}
	return true
}

// planStep sends one /v1/plan request, keeping the answer when sample is
// set, and reports whether it succeeded.
func (b *bench) planStep(it v1.BatchItem, sample bool, t *tally) bool {
	t.attempted++
	out, err := b.ps.do(http.MethodPost, "/v1/plan", planBody(it))
	if err != nil {
		t.fail(err)
		return false
	}
	t.plans++
	if sample {
		t.singles = append(t.singles, sampledPlan{item: it, body: out})
	}
	return true
}

// reload hot-reloads a cluster with its own topology document.
func (b *bench) reload(cluster string, t *tally) {
	t.attempted++
	if _, err := b.ps.do(http.MethodPut, "/v1/clusters/"+cluster, b.ps.specJSON[cluster]); err != nil {
		t.fail(err)
		return
	}
	b.noteTenants()
}

// xferStep runs transfer i of the list on a fresh machine.
func (b *bench) xferStep(i int, t *tally) {
	t.attempted++
	res, err := runXfer(&b.in.Xfers[i])
	if err != nil {
		t.fail(err)
		return
	}
	b.book.add(i, res)
	t.puts += res.Stats.Puts
	t.retries += res.Stats.Retries
	t.failovers += res.Stats.Failovers
	t.planHits += res.Stats.PlanCache.Hits
	t.planMisses += res.Stats.PlanCache.Misses
}

// verify checks the program's outputs after timing: sampled plan answers
// against the reference planners, a detailed batch, two bit-identical
// repetitions of every transfer, and the benchmark's OSU loops against omb.
func (b *bench) verify(t *tally) error {
	if t.failed > 0 {
		return fmt.Errorf("%d of %d operations failed; first: %w", t.failed, t.attempted, t.firstErr)
	}
	for _, s := range t.singles {
		var resp v1.PlanResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return err
		}
		if err := b.ref.checkPlan(s.item, &resp); err != nil {
			return err
		}
	}
	for _, s := range t.batches {
		for i, it := range s.items {
			if err := b.ref.checkBatchResult(it, s.resp.Results[i]); err != nil {
				return err
			}
		}
	}
	var detail []v1.BatchItem
	for _, op := range b.in.Xfers {
		detail = append(detail, op.planItems()...)
	}
	if len(b.in.ColdKeys) > 0 {
		detail = append(detail, b.in.ColdKeys[:64]...)
	}
	if err := b.ps.checkDetailBatch(b.ref, detail); err != nil {
		return err
	}
	for _, i := range b.book.missing() {
		res, err := runXfer(&b.in.Xfers[i])
		if err != nil {
			return err
		}
		b.book.add(i, res)
	}
	if d1, d2 := b.book.digests(); d1 != d2 {
		return fmt.Errorf("simulated completion times differ between repetitions: digest %016x vs %016x", d1, d2)
	}
	return b.checkAgainstOMB()
}

// checkAgainstOMB reruns the first clean OSU operation of each kind
// through package omb and requires the same simulated result.
func (b *bench) checkAgainstOMB() error {
	seen := map[string]bool{}
	for i := range b.in.Xfers {
		op := &b.in.Xfers[i]
		if op.Kind == "put" || op.Fault != nil || seen[op.Kind] {
			continue
		}
		seen[op.Kind] = true
		spec, err := topology(op.Cluster)
		if err != nil {
			return err
		}
		var samples []omb.Sample
		switch op.Kind {
		case "bw", "bibw":
			cfg := omb.P2PConfig{Spec: spec, UCX: opConfig(op), Window: op.Window,
				Warmup: osuWarmup, Iters: osuIters, Src: op.Src, Dst: op.Dst}
			if op.Kind == "bw" {
				samples, err = omb.BW(cfg, []float64{op.Bytes})
			} else {
				samples, err = omb.BiBW(cfg, []float64{op.Bytes})
			}
		case "allreduce", "alltoall":
			cfg := omb.CollConfig{Spec: spec, UCX: opConfig(op), Ranks: op.ranks(), Warmup: osuWarmup, Iters: osuIters}
			if op.Kind == "allreduce" {
				samples, err = omb.AllreduceLatency(cfg, []float64{op.Bytes})
			} else {
				samples, err = omb.AlltoallLatency(cfg, []float64{op.Bytes})
			}
		}
		if err != nil {
			return fmt.Errorf("omb %s: %w", op.Kind, err)
		}
		got := b.book.reps[i][0].SimSeconds
		if samples[0].Latency != got {
			return fmt.Errorf("%s %s %.0f B: omb measures %v s per iteration, the benchmark's OSU loop %v s",
				op.Cluster, op.Kind, op.Bytes, samples[0].Latency, got)
		}
	}
	return nil
}

// endToEnd derives the user-visible metrics of a verified run.
func (b *bench) endToEnd(t *tally) (map[string]float64, error) {
	var simUS, errs []float64
	for i := range b.in.Xfers {
		op := &b.in.Xfers[i]
		r := b.book.reps[i][0]
		simUS = append(simUS, r.SimSeconds*1e6)
		if !countsForModelError(b.in.Workload, op) {
			continue
		}
		pl, err := b.ref.plan(op.planItem())
		if err != nil {
			return nil, err
		}
		errs = append(errs, math.Abs(pl.PredictedBandwidth-r.SimBandwidth)/r.SimBandwidth*100)
	}
	meanErr := 0.0
	for _, e := range errs {
		meanErr += e / float64(len(errs))
	}
	// The plan workloads' two callers plan and transfer concurrently, so
	// their CPU time cannot be split: both throughputs share it. A sweep's
	// single caller splits its CPU time between plans and operations.
	planCPU, xferCPU := t.cpu, t.cpu
	p50, p99 := t.lat.percentiles()
	if len(t.opSteps) > 0 {
		planCPU, xferCPU = t.planCPU, t.xferCPU
		p50, p99 = opPercentiles(t.opSteps)
	}
	return map[string]float64{
		"plans_per_s":     float64(t.plans) / planCPU,
		"latency_p50_ms":  p50 * 1e3,
		"latency_p99_ms":  p99 * 1e3,
		"transfers_per_s": float64(t.puts) / xferCPU,
		"sim_time_geo_us": geomean(simUS),
		"model_err_pct":   meanErr,
	}, nil
}

// countsForModelError selects the transfers the model-error metric
// averages over: single messages above 4 MiB moving one way, the paper's
// accuracy claim. On contended these are the fault-free window-16
// bandwidth tests, compared against one message's prediction.
func countsForModelError(workload string, op *xferOp) bool {
	if op.Bytes <= 4*hw.MiB || op.Fault != nil {
		return false
	}
	switch workload {
	case "p2p_sweep", "contended":
		return op.Kind == "bw"
	default:
		return op.Kind == "put"
	}
}
