// Golden regression: the experiment tables render byte-identically run to
// run (the simulator, planner and both transfer engines are fully
// deterministic). Each golden is the table `mpbench -exp <name> -quick`
// prints. After a deliberate change to the model, presets or engines,
// regenerate them with `make golden` and review the diff.
package multipath_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/hw"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden renders fig and compares it with testdata/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, fig *exp.Figure) {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.RenderText(&buf, fig); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s output drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, buf.Bytes(), want)
	}
}

// goldenFigure runs one experiment at the quick grid and checks its table.
func goldenFigure(t *testing.T, name string, gen func(exp.Options) (*exp.Figure, error)) {
	t.Helper()
	fig, err := gen(exp.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, fig)
}

// The θ distribution plans without executing: it pins the planner alone.
func TestGoldenFig4(t *testing.T) {
	opts := exp.QuickOptions()
	opts.Sizes = []float64{2 * hw.MiB, 64 * hw.MiB, 512 * hw.MiB}
	fig, err := exp.Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4_quick.golden", fig)
}

// Figures 5-7 and the fault sweep execute every transfer on the eager
// engine.
func TestGoldenFig5(t *testing.T) { goldenFigure(t, "fig5_quick.golden", exp.Fig5) }
func TestGoldenFig6(t *testing.T) { goldenFigure(t, "fig6_quick.golden", exp.Fig6) }
func TestGoldenFig7(t *testing.T) { goldenFigure(t, "fig7_quick.golden", exp.Fig7) }

func TestGoldenFaults(t *testing.T) {
	goldenFigure(t, "faults_quick.golden", func(opts exp.Options) (*exp.Figure, error) {
		fig, _, err := exp.Faults(opts)
		return fig, err
	})
}

// The graphs bandwidth panel runs the same sweep on the eager and the
// compiled engine. The launch-cost panel that follows it is wall clock and
// is left out.
func TestGoldenGraphs(t *testing.T) {
	opts := exp.QuickOptions()
	opts.Sizes = []float64{4 * hw.MiB}
	fig, _, _, err := exp.GraphsBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig.Panels = fig.Panels[:len(opts.Clusters)*len(opts.Windows)]
	checkGolden(t, "graphs_quick.golden", fig)
}
