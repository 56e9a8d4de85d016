// Paper-claims regression suite: each test asserts one of the paper's
// quantitative claims at reduced scale, so `go test .` re-checks the
// reproduction end to end. The full-grid equivalents are recorded in
// EXPERIMENTS.md.
package multipath_test

import (
	"testing"

	multipath "repro"
	"repro/internal/exp"
	"repro/internal/hw"
)

// Claim (§1): "achieving up to 2.9x speedup over single-path methods"
// — P2P multi-path speedup approaches ~3x with four paths.
func TestClaimP2PSpeedup(t *testing.T) {
	direct, err := transferBW(t, multipath.DirectOnly)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := transferBW(t, multipath.ThreeGPUsWithHost)
	if err != nil {
		t.Fatal(err)
	}
	sp := multi / direct
	if sp < 2.5 || sp > 3.3 {
		t.Fatalf("4-path speedup %.2fx outside the paper's band (~2.9x)", sp)
	}
}

func transferBW(t *testing.T, sel multipath.PathSet) (float64, error) {
	t.Helper()
	sys, err := multipath.NewSystem(multipath.Beluga(), multipath.DefaultConfig())
	if err != nil {
		return 0, err
	}
	res, err := sys.Transfer(0, 1, 256*multipath.MiB, sel)
	if err != nil {
		return 0, err
	}
	return res.Bandwidth, nil
}

// Claim (§1): "an average of less than 6% error in predicting the optimal
// configuration for messages larger than 4MB".
func TestClaimPredictionError(t *testing.T) {
	opts := exp.QuickOptions()
	opts.Sizes = []float64{8 * hw.MiB, 32 * hw.MiB, 128 * hw.MiB, 512 * hw.MiB}
	fig, err := exp.Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	errSeries := fig.Panels[0].FindSeries(exp.SeriesErrPct)
	var sum float64
	for _, pt := range errSeries.Points {
		sum += pt.Value
	}
	mean := sum / float64(len(errSeries.Points))
	if mean > 6.0 {
		t.Fatalf("mean prediction error %.1f%% exceeds the paper's 6%% claim", mean)
	}
}

// Claim (§1): collectives gain "up to 1.4x compared to the single-path
// versions" — multi-path collectives must show a real speedup in that
// neighbourhood.
func TestClaimCollectiveSpeedup(t *testing.T) {
	opts := exp.QuickOptions()
	opts.PathSets = []string{"3gpus"}
	opts.CollSizes = []float64{32 * hw.MiB, 128 * hw.MiB}
	fig, err := exp.Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, panel := range fig.Panels {
		for _, pt := range panel.FindSeries(exp.SeriesDynamicSpeedup).Points {
			if pt.Value > best {
				best = pt.Value
			}
		}
	}
	if best < 1.3 || best > 2.0 {
		t.Fatalf("best collective speedup %.2fx outside the paper's regime", best)
	}
}

// Theorem 1 (§3.2): the optimal schedule equalizes per-path times.
func TestClaimEqualTimeOptimum(t *testing.T) {
	sys, err := multipath.NewSystem(multipath.Beluga(), multipath.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan(0, 1, 256*multipath.MiB, multipath.ThreeGPUsWithHost)
	if err != nil {
		t.Fatal(err)
	}
	active := plan.ActivePaths()
	if len(active) < 2 {
		t.Fatal("expected a multi-path plan")
	}
	lo, hi := active[0].Predicted, active[0].Predicted
	for _, pp := range active[1:] {
		if pp.Predicted < lo {
			lo = pp.Predicted
		}
		if pp.Predicted > hi {
			hi = pp.Predicted
		}
	}
	if (hi-lo)/hi > 0.001 {
		t.Fatalf("per-path times not equalized: spread %.3f%%", 100*(hi-lo)/hi)
	}
}

// Observation 4 (§5.2): the model over-predicts for small messages —
// a documented failure mode that must re-appear.
func TestClaimSmallMessageWeakness(t *testing.T) {
	opts := exp.QuickOptions()
	opts.Sizes = []float64{2 * hw.MiB, 256 * hw.MiB}
	fig, err := exp.Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	errSeries := fig.Panels[0].FindSeries(exp.SeriesErrPct)
	small, _ := errSeries.Value(2 * hw.MiB)
	large, _ := errSeries.Value(256 * hw.MiB)
	if small <= large {
		t.Fatalf("small-message error (%.1f%%) should exceed large-message error (%.1f%%)",
			small, large)
	}
}

// Observation 5 (§5.2): host staging degrades bidirectional bandwidth.
func TestClaimHostStagedBIBWDegradation(t *testing.T) {
	opts := exp.QuickOptions()
	opts.PathSets = []string{"3gpus_host"}
	opts.Sizes = []float64{256 * hw.MiB}
	fig, err := exp.Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	panel := fig.Panels[0]
	measured, _ := panel.FindSeries(exp.SeriesDynamic).Value(256 * hw.MiB)
	predicted, _ := panel.FindSeries(exp.SeriesPredicted).Value(256 * hw.MiB)
	if predicted <= measured {
		t.Fatalf("model should over-predict host-staged BIBW: pred %.1f vs meas %.1f GB/s",
			predicted/1e9, measured/1e9)
	}
}
