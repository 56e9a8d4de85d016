package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSameSeedSameInputs: one seed always yields byte-identical inputs,
// and another seed yields different ones.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) []byte {
			in, err := generate(w, seed, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			d, err := in.digest(2)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, b, c := digest(7), digest(7), digest(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced different inputs on two generations", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: the metrics the benchmark prints are
// exactly those BENCHMARK.json declares, with the same units and
// directions, and the workloads agree too.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, declared []struct{ Name, Unit, Better string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			p := printed[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, d, p)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly on trimmed inputs, untraced and
// traced, and checks the properties each workload exists to show.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		seconds := 0.3
		if w == "contended" {
			seconds = 3 // long enough to reach faulted operations under -race
		}
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 1, seconds: seconds, trace: trace, smoke: true, spans: dir + "/spans.json"})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %+v", w, trace, res)
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
				}
			}
			if !trace {
				continue
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			switch w {
			case "plan_hot":
				if v("core.hit_ratio") != 1 {
					t.Errorf("plan_hot: core.hit_ratio %v, want 1", v("core.hit_ratio"))
				}
			case "plan_cold":
				if v("core.hit_ratio") >= 1 || v("serve.reload_ms") <= 0 {
					t.Errorf("plan_cold: core.hit_ratio %v, serve.reload_ms %v", v("core.hit_ratio"), v("serve.reload_ms"))
				}
			case "p2p_sweep":
				if v("ucx.retries_per_put") != 0 {
					t.Errorf("p2p_sweep: ucx.retries_per_put %v, want 0", v("ucx.retries_per_put"))
				}
			case "contended":
				if v("ucx.retries_per_put") <= 0 {
					t.Errorf("contended: ucx.retries_per_put %v, want > 0", v("ucx.retries_per_put"))
				}
			}
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var a, b latencies
	for i := 0; i < 1500; i++ {
		a.add(float64(i % 1000))
		b.add(float64(i % 1000))
	}
	a.merge(&b)
	p50, p99 := a.percentiles()
	if a.n != 3000 || len(a.p99s) != 3 || p50 != 499 || p99 != 989 {
		t.Errorf("%d samples in %d chunks, p50 %v p99 %v; want 3000 in 3, 499 and 989", a.n, len(a.p99s), p50, p99)
	}
}

func TestOpPercentiles(t *testing.T) {
	// Two operations, one ten times the other's cost, each with one slow
	// step in a hundred: the tail factor is the same for both.
	var byOp [][]float64
	for _, base := range []float64{1, 10} {
		var xs []float64
		for i := 0; i < 100; i++ {
			x := base
			if i == 0 {
				x = 3 * base
			}
			xs = append(xs, x)
		}
		byOp = append(byOp, xs)
	}
	p50, p99 := opPercentiles(byOp)
	if math.Abs(p50-math.Sqrt(10)) > 1e-12 || math.Abs(p99-p50) > 1e-12 {
		t.Errorf("p50 %v p99 %v; want √10 for both (2 slow steps of 200 lie above the p99)", p50, p99)
	}
}
