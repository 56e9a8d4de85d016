// Command perfbench is the repository's benchmark: one closed-loop
// workload per run over the plan-serving daemon and the simulated
// transfer stack, printing the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of stdout.
//
//	perfbench --workload plan_hot --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// workloads are the closed loops the benchmark runs, in BENCHMARK.json
// order.
var workloads = []string{"plan_hot", "plan_cold", "p2p_sweep", "contended"}

// A run sets up at least setupMinReps times and until the set-ups have
// used setupMinCPU seconds of CPU time (at most setupMaxReps times), then
// times the last set-up's workload; setup_s is the median set-up.
const (
	setupMinReps = 7
	setupMaxReps = 200
	setupMinCPU  = 1.5
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	smoke      bool
	spans      string
	cpuprofile string
	memprofile string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: plan_hot, plan_cold, p2p_sweep or contended")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "trimmed inputs and a single set-up, for a quick check")
	flag.StringVar(&o.spans, "spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>-<seed>.json)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phase to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the timed phase to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.spans == "" && o.trace {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)
	}

	res, err := run(o)
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", err)
		os.Exit(1)
	}
}

// run sets up, measures and verifies one workload. A non-nil result with
// a non-nil error is a measured run whose outputs were wrong.
func run(o options) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	clients := min(2, runtime.NumCPU())
	sweep := o.workload == "p2p_sweep" || o.workload == "contended"
	if sweep {
		clients = 1 // the sweeps run sequentially
	}
	in, err := generate(o.workload, o.seed, clients, o.smoke)
	if err != nil {
		return nil, err
	}

	// The sweeps are sequential: at every step one goroutine waits for
	// another (an HTTP request, a simulated process). With a second P the
	// Go scheduler spins on the idle CPU while it waits, and the spinning
	// grows when the host withholds CPU time, so CPU-time figures would
	// follow the host's load. They run, set-up included, on one P; the
	// plan workloads' two clients run on all of them.
	if sweep {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}

	var b *bench
	var setups []float64
	for total := 0.0; len(setups) < setupMaxReps && (len(setups) < setupMinReps || total < setupMinCPU); {
		if b != nil {
			b.close()
		}
		// Collect the previous set-up's garbage first, so no set-up pays
		// for another's.
		runtime.GC()
		c0 := cpuSeconds()
		if b, err = newBench(in, clients); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := cpuSeconds() - c0
		setups = append(setups, s)
		total += s
		if o.smoke {
			break
		}
	}
	defer b.close()

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	runtime.GC()
	d := time.Duration(o.seconds * float64(time.Second))
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	heap := startHeapSampler(5 * time.Millisecond)
	t := b.loop(d, rec)
	memPeak := heap.medianPeakMiB()
	if o.memprofile != "" {
		if err := writeHeapProfile(o.memprofile); err != nil {
			return nil, err
		}
	}

	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if err := b.verify(t); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d set-ups; %d steps, %d latency samples, %d plans, %d puts, %d retries\n",
		o.workload, o.seed, len(setups), t.steps, t.lat.n+t.opSamples(), t.plans, t.puts, t.retries)

	if o.trace {
		layers, err := b.layerMetrics(rec, t)
		if err != nil {
			return res, err
		}
		if t.stepSec > 0 {
			layers["trace.overhead_pct"] = t.recordSec / t.stepSec * 100
		}
		if err := rec.write(o.spans); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
	} else {
		e2e, err := b.endToEnd(t)
		if err != nil {
			return res, err
		}
		e2e["setup_s"] = median(setups)
		e2e["mem_peak_mb"] = memPeak
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	res.Correct = true
	return res, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
