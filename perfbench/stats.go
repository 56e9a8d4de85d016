package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// chunkSamples is the size of the consecutive groups latency percentiles
// are taken over: a 1000-sample group leaves ten samples above its p99.
const chunkSamples = 1000

// latencies keeps one client's plan round trips (seconds) as consecutive
// chunks of chunkSamples, summarized by each chunk's median and 99th
// percentile as it fills. The reported percentiles are medians over
// chunks, so one disturbed stretch of a run moves them little, and the
// record stays small.
type latencies struct {
	n          int
	chunk      []float64
	p50s, p99s []float64
}

func (l *latencies) add(rtt float64) {
	l.n++
	l.chunk = append(l.chunk, rtt)
	if len(l.chunk) == chunkSamples {
		l.summarize()
	}
}

func (l *latencies) summarize() {
	l.p50s = append(l.p50s, quantile(l.chunk, 0.50))
	l.p99s = append(l.p99s, quantile(l.chunk, 0.99))
	l.chunk = l.chunk[:0]
}

// merge adds another client's chunks; partial chunks pool together.
func (l *latencies) merge(o *latencies) {
	l.n += o.n
	l.p50s = append(l.p50s, o.p50s...)
	l.p99s = append(l.p99s, o.p99s...)
	for _, rtt := range o.chunk {
		l.n--
		l.add(rtt)
	}
}

// percentiles returns the median over full chunks of the chunk medians
// and 99th percentiles (one partial chunk when no chunk filled).
func (l *latencies) percentiles() (p50, p99 float64) {
	if len(l.p50s) == 0 && len(l.chunk) > 0 {
		l.summarize()
	}
	return median(l.p50s), median(l.p99s)
}

// opPercentiles summarizes step times kept per operation: p50 is the
// geometric mean over operations of each one's median, and p99 scales it
// by the 99th percentile of every step's time over its operation's
// median. Pooling raw times instead would make the p99 the few slowest
// operations' own spread. The slices are sorted in place.
func opPercentiles(byOp [][]float64) (p50, p99 float64) {
	var meds, ratios []float64
	for _, xs := range byOp {
		if len(xs) == 0 {
			continue
		}
		m := median(xs)
		meds = append(meds, m)
		for _, x := range xs {
			ratios = append(ratios, x/m)
		}
	}
	p50 = geomean(meds)
	return p50, p50 * quantile(ratios, 0.99)
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapMetric is the live-heap gauge sampled for mem_peak_mb: bytes occupied
// by heap objects, live or not yet swept.
const heapMetric = "/memory/classes/heap/objects:bytes"

// allocMetric counts heap allocations since process start.
const allocMetric = "/gc/heap/allocs:objects"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWindow is the span over which heapSampler takes one peak.
const heapWindow = time.Second

// heapSampler records the Go heap's peak in every window while it runs.
// The median of the window peaks is steadier than the single highest
// sample, which depends on where garbage collections happen to fall.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

// startHeapSampler polls the heap gauge every interval until stopped.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		start := time.Now()
		peak := readMetric(heapMetric)
		for {
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case now := <-tick.C:
				if w := int(now.Sub(start) / heapWindow); w > len(h.peaks) {
					h.peaks = append(h.peaks, float64(peak))
					peak = 0
				}
				peak = max(peak, readMetric(heapMetric))
			}
		}
	}()
	return h
}

// medianPeakMiB stops the sampler and returns the median window peak in
// MiB (the overall peak when the run is shorter than one window).
func (h *heapSampler) medianPeakMiB() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks) / (1 << 20)
}
