package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestMain runs mpbench itself when re-executed by runMPBench, so the
// command-line tests drive the real flag handling without building a
// separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("MPBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMPBench runs mpbench with args and returns its stdout and whether it
// exited 0.
func runMPBench(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MPBENCH_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mpbench %v: %v", args, err)
	}
	return stdout.String(), err == nil
}

func TestUsageNamesEveryExperiment(t *testing.T) {
	usage := strings.Split(strings.TrimPrefix(expUsage, "experiment: "), "|")
	var table []string
	for name := range experiments {
		table = append(table, name)
	}
	sort.Strings(usage)
	sort.Strings(table)
	if strings.Join(usage, "|") != strings.Join(table, "|") {
		t.Fatalf("-exp usage lists %v, experiments table has %v", usage, table)
	}
}

// TestQuickAppliesGridFlags pins that -quick starts from the reduced grid
// but keeps the grid flags given on the command line, validated like
// without -quick.
func TestQuickAppliesGridFlags(t *testing.T) {
	out, ok := runMPBench(t, "-exp", "fig5", "-quick", "-clusters", "narval")
	if !ok {
		t.Fatal("mpbench -exp fig5 -quick -clusters narval failed")
	}
	if !strings.Contains(out, "on narval") || strings.Contains(out, "on beluga") {
		t.Errorf("-quick -clusters narval printed other panels:\n%s", out)
	}
	if _, ok := runMPBench(t, "-exp", "fig5", "-quick", "-clusters", "bogus"); ok {
		t.Error("-quick -clusters bogus exited 0")
	}
}

// TestJSONWithoutRecordFailsBeforeRun pins that -json on an experiment
// that writes no record exits 1 before running anything: no table on
// stdout and no file written.
func TestJSONWithoutRecordFailsBeforeRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	out, ok := runMPBench(t, "-exp", "fig5", "-quick", "-json", path)
	if ok {
		t.Fatal("mpbench -exp fig5 -quick -json exited 0")
	}
	if out != "" {
		t.Errorf("mpbench -exp fig5 -quick -json ran before failing; stdout:\n%s", out)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-json file %s exists after the rejected run (stat: %v)", path, err)
	}
}

// TestRecordLayoutMatchesCheckedInBench rebuilds every -json record from
// the series of its checked-in BENCH file, without running the sweeps, and
// checks the record's keys against the file's: the top-level keys in order,
// and for each the keys of its object value or of its points.
func TestRecordLayoutMatchesCheckedInBench(t *testing.T) {
	records := map[string]func(file []byte) any{
		"BENCH_planner.json": func(f []byte) any { return plannerRecord(series[exp.PlanCachePoint](t, f, "points")) },
		"BENCH_faults.json":  func(f []byte) any { return faultsRecord(series[exp.FaultPoint](t, f, "points")) },
		"BENCH_graphs.json": func(f []byte) any {
			return graphsRecord(series[exp.GraphPoint](t, f, "points"), series[exp.GraphLaunchPoint](t, f, "launch_scaling"))
		},
		"BENCH_obs.json":   func(f []byte) any { return obsRecord(series[exp.ObsPoint](t, f, "points")) },
		"BENCH_shard.json": func(f []byte) any { return shardRecord(series[exp.ShardPoint](t, f, "points")) },
		"BENCH_serve.json": func(f []byte) any { return serveRecord(series[exp.ServePoint](t, f, "points")) },
	}
	for file, record := range records {
		want, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(record(want))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := layout(t, got), layout(t, want); strings.Join(g, " ") != strings.Join(w, " ") {
			t.Errorf("%s: record keys\n  %v\nwant\n  %v", file, g, w)
		}
	}
}

// series decodes the array under key in a BENCH file.
func series[P any](t *testing.T, file []byte, key string) []P {
	t.Helper()
	var members map[string]json.RawMessage
	var points []P
	if err := json.Unmarshal(file, &members); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(members[key], &points); err != nil || len(points) == 0 {
		t.Fatalf("%s: %d points, %v", key, len(points), err)
	}
	return points
}

// layout lists a JSON object's keys in order, each followed by the keys of
// its object value, or of its array's elements (each distinct key list
// once), as "key.sub".
func layout(t *testing.T, data []byte) []string {
	t.Helper()
	var members map[string]json.RawMessage
	if err := json.Unmarshal(data, &members); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, k := range objectKeys(t, data) {
		out = append(out, k)
		var elems []json.RawMessage
		if json.Unmarshal(members[k], &elems) != nil {
			elems = []json.RawMessage{members[k]}
		}
		seen := map[string]bool{}
		for _, v := range elems {
			if !bytes.HasPrefix(bytes.TrimSpace(v), []byte("{")) {
				continue
			}
			keys := strings.Join(objectKeys(t, v), " "+k+".")
			if !seen[keys] {
				seen[keys] = true
				out = append(out, k+"."+keys)
			}
		}
	}
	return out
}

// objectKeys returns the keys of the JSON object in data, in order.
func objectKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %.60s", data)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
	}
	return keys
}
