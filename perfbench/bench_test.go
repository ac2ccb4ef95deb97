package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satbelim/internal/progen"
)

// TestQuick runs every workload of BENCHMARK.json for a moment, untraced
// and traced, setting each up twice, and checks that each run is correct, fails no op and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestQuick(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(config{workload: w.Name, seed: 1, seconds: 0.2, trace: trace, out: t.TempDir(), setups: 2}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTracedPathDrift compiles a program whose block visits vary from
// compile to compile at this writing through both compile paths: a
// difference may only be reported as drift, never as a traced path that
// measures another program.
func TestTracedPathDrift(t *testing.T) {
	src := progen.Generate(6700127738002675197, coldGen())
	for k := 0; k < 4; k++ {
		b, err := decomposedCompile(nil, 0, -1, "p", src, fullCompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		if fail, _ := checkTracedPath(nil, 0, b, "p", src, fullCompileOptions()); fail != "" {
			t.Fatal(fail)
		}
	}
}

// TestFingerprintsPerBuild checks that counts saved by one run are
// compared in a later run of the same build and seed, and that counts
// saved by another build are not.
func TestFingerprintsPerBuild(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "fingerprints", "another-build", "run-hot-seed7.json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte(`{"run:p":{"Steps":9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := loadFingerprints(dir, "run-hot", 7)
	if err != nil {
		t.Fatal(err)
	}
	if drift := f.observe("p", map[string]fingerprint{"run": {Steps: 10}}); drift != "" {
		t.Errorf("counts of another build were compared: %s", drift)
	}
	if err := f.save(); err != nil {
		t.Fatal(err)
	}
	g, err := loadFingerprints(dir, "run-hot", 7)
	if err != nil {
		t.Fatal(err)
	}
	if drift := g.observe("p", map[string]fingerprint{"run": {Steps: 11}}); !strings.Contains(drift, "Steps 10 then 11") {
		t.Errorf("drift across runs of one build = %q", drift)
	}
}
