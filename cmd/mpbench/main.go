// Command mpbench regenerates the paper's evaluation: figures 4-7 and the
// headline aggregate table, printed as text tables and optionally written
// as CSV, plus the benchmark experiments, whose record -json writes.
//
// Usage:
//
//	mpbench -exp all                             # everything, full grid
//	mpbench -exp all -workers 0                  # same tables, one worker per CPU
//	mpbench -exp fig5 -clusters beluga           # one figure, one cluster
//	mpbench -exp headline -quick                 # reduced grid smoke run
//	mpbench -exp fig6 -csv out.csv               # also dump CSV
//	mpbench -exp faults -json BENCH_faults.json  # fault sweep and its record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/hw"
	"repro/internal/par"
)

const expUsage = "experiment: fig4|fig5|fig6|fig7|headline|ext|obs|obs2|plancache|faults|graphs|shard|serve|all"

// experiment is one -exp entry. run prints its tables and returns the
// figures it ran (for -csv) and, when record is set (the benchmark
// experiments), the record -json writes.
type experiment struct {
	run    func(o exp.Options, quick bool) (figs []*exp.Figure, rec any, err error)
	record bool
}

var experiments = map[string]experiment{
	"fig4": figures(exp.Fig4),
	"fig5": figures(exp.Fig5),
	"fig6": figures(exp.Fig6),
	"fig7": figures(exp.Fig7),
	"ext": figures(exp.ExtBidirAware, exp.ExtPatternAware, exp.ExtAdaptivePhi,
		exp.ExtNVSwitch, exp.ExtInterNode),
	"obs2": figures(exp.ObsWindowScaling),
	"headline": {run: func(o exp.Options, _ bool) ([]*exp.Figure, any, error) {
		h, f5, f6, f7, err := exp.RunHeadline(o)
		if err != nil {
			return nil, nil, err
		}
		return []*exp.Figure{f5, f6, f7}, nil, exp.RenderHeadline(os.Stdout, h)
	}},
	"all": {run: func(o exp.Options, quick bool) ([]*exp.Figure, any, error) {
		figs, _, err := figures(exp.Fig4, exp.Fig5, exp.Fig6, exp.Fig7).run(o, quick)
		if err != nil {
			return nil, nil, err
		}
		return figs, nil, exp.RenderHeadline(os.Stdout, exp.HeadlineFromFigures(figs[1], figs[2], figs[3]))
	}},
	"plancache": {record: true, run: func(o exp.Options, _ bool) ([]*exp.Figure, any, error) {
		fig, points, err := exp.PlanCacheBench(o)
		return shown(fig, plannerRecord(points), err)
	}},
	"faults": {record: true, run: func(o exp.Options, _ bool) ([]*exp.Figure, any, error) {
		fig, points, err := exp.Faults(o)
		return shown(fig, faultsRecord(points), err)
	}},
	"graphs": {record: true, run: func(o exp.Options, quick bool) ([]*exp.Figure, any, error) {
		// The eliminated per-chunk/per-path overheads matter most at small
		// sizes; 4 MiB is where the multi-path split first kicks in.
		o.Sizes = exp.GraphSizes()
		if quick {
			o.Sizes = []float64{4 * hw.MiB}
		}
		fig, points, launch, err := exp.GraphsBench(o)
		return shown(fig, graphsRecord(points, launch), err)
	}},
	"obs": {record: true, run: func(o exp.Options, quick bool) ([]*exp.Figure, any, error) {
		if quick {
			o.Sizes = []float64{4 * hw.MiB}
		}
		fig, points, err := exp.ObsBench(o)
		return shown(fig, obsRecord(points), err)
	}},
	"shard": {record: true, run: func(o exp.Options, _ bool) ([]*exp.Figure, any, error) {
		fig, points, err := exp.ShardBench(o)
		return shown(fig, shardRecord(points), err)
	}},
	"serve": {record: true, run: func(o exp.Options, quick bool) ([]*exp.Figure, any, error) {
		if quick {
			// A few batches per series, still end-to-end over real sockets.
			o.ServePlans = 8 * exp.ServeBatchSize
		}
		fig, points, err := exp.ServeBench(o)
		return shown(fig, serveRecord(points), err)
	}},
}

// figures runs each generator and prints its table and a blank line.
func figures(gens ...func(exp.Options) (*exp.Figure, error)) experiment {
	return experiment{run: func(o exp.Options, _ bool) ([]*exp.Figure, any, error) {
		var figs []*exp.Figure
		for _, gen := range gens {
			fig, err := gen(o)
			if err != nil {
				return nil, nil, err
			}
			if err := exp.RenderText(os.Stdout, fig); err != nil {
				return nil, nil, err
			}
			fmt.Println()
			figs = append(figs, fig)
		}
		return figs, nil, nil
	}}
}

// shown prints the one table of a benchmark experiment, with no blank line
// after it, and returns the table and the record.
func shown(fig *exp.Figure, rec any, err error) ([]*exp.Figure, any, error) {
	if err != nil {
		return nil, nil, err
	}
	return []*exp.Figure{fig}, rec, exp.RenderText(os.Stdout, fig)
}

func main() {
	var (
		expName  = flag.String("exp", "all", expUsage)
		clusters = flag.String("clusters", "beluga,narval", "comma-separated cluster presets")
		pathSets = flag.String("paths", "2gpus,3gpus,3gpus_host", "comma-separated path sets")
		windows  = flag.String("windows", "1,16", "comma-separated OSU window sizes")
		iters    = flag.Int("iters", 3, "measured iterations per point")
		quick    = flag.Bool("quick", false,
			"reduced grid for a fast smoke run; -clusters, -paths, -windows and -iters still apply when set")
		csvPath  = flag.String("csv", "", "also write figure data as CSV to this file")
		jsonPath = flag.String("json", "",
			"write the record of a benchmark experiment (plancache|faults|graphs|obs|shard|serve) to this file")
		workers = flag.Int("workers", 1,
			"grid points (panels, search points) simulated at once: 1 = sequential, 0 = one per CPU; "+
				"output is byte-identical for every value")
		shards    = flag.Int("shards", 0, "fleet shard count for -exp shard (0 = one shard per node)")
		tracePath = flag.String("trace", "",
			"write a Perfetto trace to this file: per-shard epoch tracks for -exp shard, "+
				"a fault-rich adaptive transfer (first cluster) otherwise")
	)
	flag.Parse()

	e, ok := experiments[*expName]
	if !ok {
		fatal("unknown experiment %q", *expName)
	}
	if *jsonPath != "" && !e.record {
		fatal("-exp %s writes no -json record", *expName)
	}
	opts := exp.DefaultOptions()
	if *quick {
		opts = exp.QuickOptions()
	}
	// The grid flags' defaults are the full grid's values, so only flags
	// set on the command line override the chosen grid.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "clusters":
			opts.Clusters = splitList(*clusters)
		case "paths":
			opts.PathSets = splitList(*pathSets)
		case "windows":
			opts.Windows = nil
			for _, w := range splitList(*windows) {
				v, err := strconv.Atoi(w)
				if err != nil || v < 1 {
					fatal("bad window %q", w)
				}
				opts.Windows = append(opts.Windows, v)
			}
		case "iters":
			opts.Iters = *iters
		}
	})
	for _, c := range opts.Clusters {
		if _, ok := hw.Presets[c]; !ok {
			fatal("unknown cluster %q (have: beluga, narval, nvswitch, synthetic)", c)
		}
	}
	if w := *workers; w < 0 {
		fatal("bad -workers %d (1 = sequential, 0 = one per CPU)", w)
	} else if w != 1 {
		if w == 0 {
			w = par.DefaultWorkers()
		}
		opts.Workers, opts.Search.Workers = w, w
	}
	opts.Shards = *shards

	figs, rec, err := e.run(opts, *quick)
	if err != nil {
		fatal("%s: %v", *expName, err)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal("write %s: %v", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s record to %s\n", *expName, *jsonPath)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal("create %s: %v", *csvPath, err)
		}
		defer f.Close()
		for _, fig := range figs {
			if err := exp.WriteCSV(f, fig); err != nil {
				fatal("write csv: %v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote CSV to %s\n", *csvPath)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("create %s: %v", *tracePath, err)
		}
		var summary string
		if *expName == "shard" {
			var info *exp.ShardTraceInfo
			if info, err = exp.ShardTrace(f); err == nil {
				summary = fmt.Sprintf("shard Perfetto trace (%d spans, %d instants, %d epochs)",
					info.Spans, info.Instants, info.Epochs)
			}
		} else {
			cluster := "beluga"
			if len(opts.Clusters) > 0 {
				cluster = opts.Clusters[0]
			}
			var info *exp.ObsTraceInfo
			if info, err = exp.ObsTrace(cluster, f); err == nil {
				summary = fmt.Sprintf("Perfetto trace (%d spans, %d instants)", info.Spans, info.Instants)
				// Run footer: the traced run's unified stats snapshot.
				fmt.Println("traced run stats:")
				err = info.Stats.WriteJSON(os.Stdout)
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s to %s\n", summary, *tracePath)
	}
}

// header opens every -json record.
type header struct {
	Description string `json:"description"`
	Host        string `json:"host"`
	Date        string `json:"date"`
}

// stamp heads a record with its description and this run's host and date.
func stamp(description string) header {
	host := fmt.Sprintf("GOMAXPROCS=%d, %s %s/%s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	return header{description, host, time.Now().Format("2006-01-02")}
}

// pointsRecord is the record of an experiment whose result is one series.
func pointsRecord[P any](description string, points []P) any {
	return struct {
		header
		Points []P `json:"points"`
	}{stamp(description), points}
}

func plannerRecord(points []exp.PlanCachePoint) any {
	type seedRef struct {
		Bench       string  `json:"bench"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int     `json:"allocs_per_op"`
	}
	return struct {
		header
		Seed      seedRef              `json:"seed_reference"`
		OpsPerGor int                  `json:"ops_per_goroutine"`
		Points    []exp.PlanCachePoint `json:"points"`
	}{
		header: stamp("Concurrent planning throughput of the sharded plan cache (mpbench -exp " +
			"plancache): ops/sec and hit ratio per goroutine count. 'warm' is the steady-state " +
			"all-hit path, 'churn' forces a fresh key every 64 ops, 'quantized' runs churn with " +
			"size-class sharing on. Compare warm ns_per_op against seed_reference (the pre-rework " +
			"string-key cache hit, recorded once); BenchmarkPlanCacheHit and " +
			"BenchmarkPlanCacheHitLegacyStringKey re-measure both on any host."),
		Seed:      seedRef{"BenchmarkAblationConfigCacheWarm @ seed (fmt string key, unsharded map)", 1909, 6},
		OpsPerGor: exp.PlanCacheOpsPerGoroutine,
		Points:    points,
	}
}

func faultsRecord(points []exp.FaultPoint) any {
	return pointsRecord("Fault adaptation (mpbench -exp faults): achieved bandwidth per "+
		"(cluster, scenario, factor, size, mode) cell. 'degrade' drops the direct NVLink to the "+
		"given capacity factor at half the fault-free predicted time; 'failure' (factor 0) "+
		"kills the staging link permanently, which the static baseline, running with failover "+
		"disabled, does not survive. Adaptive = chunk-pool segmentation + fault notification + "+
		"online recalibration + failover (see DESIGN.md).", points)
}

func graphsRecord(points []exp.GraphPoint, launch []exp.GraphLaunchPoint) any {
	return struct {
		header
		Points []exp.GraphPoint       `json:"points"`
		Launch []exp.GraphLaunchPoint `json:"launch_scaling"`
	}{stamp("Compiled transfer graphs (mpbench -exp graphs): the OMB unidirectional sweep per " +
		"(cluster, window) cell with the eager (interpreted) engine vs UCX_MP_GRAPHS=y " +
		"compiled-graph replay. The compiled path charges one launch overhead per transfer " +
		"instead of per-chunk ε and per-path α, so speedup_pct concentrates at small and medium " +
		"sizes. launch_scaling shows wall-clock issuing cost per warm replay: " +
		"compiled_launch_ns stays flat as the chunk count (and graph node count) grows — the " +
		"O(1) launch — while interpreted_ns_per_op grows with it. Wall-clock fields are " +
		"host-dependent; bandwidth cells are deterministic simulation."), points, launch}
}

func obsRecord(points []exp.ObsPoint) any {
	return pointsRecord("Observability overhead (mpbench -exp obs): the same Put-window workload "+
		"per (cluster, size) cell with UCX_MP_TRACE off vs on, wall-clock timed. "+
		"disabled_ns_per_op is the hook cost with tracing off (every hook is one nil pointer "+
		"check; must sit within noise of the untouched seed), enabled_ns_per_op adds "+
		"span/instant recording and metric updates, and spans/instants give the enabled run's "+
		"event volume. ns/op fields are host-dependent wall clock; counts are deterministic "+
		"simulation.", points)
}

func shardRecord(points []exp.ShardPoint) any {
	return pointsRecord("Sharded event engine (mpbench -exp shard): 'fleet8' runs eight "+
		"contending nodes as one fused fluid network (baseline_ns) vs one network per node on "+
		"an 8-shard cluster, over a worker ladder — the speedup comes from per-component "+
		"re-rating scope (O(node) instead of O(fleet) per event) plus epoch parallelism where "+
		"cores exist. 'single' runs one node on the plain engine vs clusters of 1/2/8 shards, "+
		"measuring pure epoch-machinery overhead (overhead_pct must stay flat and small). "+
		"checksum is FNV-64a over every completion time's bit pattern and must be identical "+
		"across shard and worker counts — the deterministic-merge contract. Wall-clock fields "+
		"are host-dependent; checksums and epoch counts are deterministic.", points)
}

func serveRecord(points []exp.ServePoint) any {
	return struct {
		header
		BatchSize int              `json:"batch_size"`
		Points    []exp.ServePoint `json:"points"`
	}{stamp("Plan serving (mpbench -exp serve): the mpserve daemon stack in-process behind real " +
		"loopback sockets, replaying a deterministic mixed-size plan workload across two " +
		"registered clusters. 'http_single' round-trips one POST /v1/plan per query, " +
		"'http_batch' amortizes one POST /v1/batch over 1024 queries, 'tcp_batch' sends the " +
		"same batches over the length-prefixed TCP fast path. plans_per_sec and the latency " +
		"percentiles are wall clock and host-dependent; speedup_vs_single is each batch series' " +
		"plans_per_sec over http_single's and must stay >= 5 at batch size 1024."), exp.ServeBatchSize, points}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpbench: "+format+"\n", args...)
	os.Exit(1)
}
