package report

import (
	"strings"
	"testing"
)

func TestVMPerfShape(t *testing.T) {
	rows, err := VMPerf.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 workloads × 3 engines
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	for i := 0; i < len(rows); i += 3 {
		comp, fused, sw := rows[i], rows[i+1], rows[i+2]
		if comp.Engine != "compiled" || fused.Engine != "fused" || sw.Engine != "switch" {
			t.Fatalf("row trio %d: engines %q/%q/%q", i, comp.Engine, fused.Engine, sw.Engine)
		}
		if comp.Workload != fused.Workload || fused.Workload != sw.Workload {
			t.Fatalf("row trio %d: workload mismatch %q/%q/%q", i, comp.Workload, fused.Workload, sw.Workload)
		}
		// All engines execute the identical instruction stream.
		if comp.Steps != sw.Steps || fused.Steps != sw.Steps {
			t.Errorf("%s: steps diverge: compiled %d fused %d switch %d",
				sw.Workload, comp.Steps, fused.Steps, sw.Steps)
		}
		if sw.Steps <= 0 || comp.WallNs <= 0 || fused.WallNs <= 0 || sw.WallNs <= 0 {
			t.Errorf("%s: non-positive steps/wall time", sw.Workload)
		}
		if comp.Speedup <= 0 || fused.Speedup <= 0 {
			t.Errorf("%s: compiled/fused rows missing speedup", sw.Workload)
		}
		if sw.Speedup != 0 {
			t.Errorf("%s: switch row must not carry a speedup", sw.Workload)
		}
		if comp.CompiledOverFused <= 0 {
			t.Errorf("%s: compiled row missing compiled-over-fused ratio", sw.Workload)
		}
		if comp.TierUps <= 0 || comp.TierSegExecs <= 0 {
			t.Errorf("%s: compiled row missing tier counters (ups=%d segs=%d)",
				sw.Workload, comp.TierUps, comp.TierSegExecs)
		}
		if fused.TierUps != 0 || sw.TierUps != 0 {
			t.Errorf("%s: non-compiled rows must not carry tier counters", sw.Workload)
		}
	}
	if g := VMPerfGeomeanSpeedup(rows); g <= 0 {
		t.Errorf("geomean = %v, want > 0", g)
	}
	if g := VMPerfGeomeanCompiledOverFused(rows); g <= 0 {
		t.Errorf("compiled-over-fused geomean = %v, want > 0", g)
	}
	out := VMPerf.Format(defaults, rows)
	for _, want := range []string{"jess", "jbb", "compiled", "fused", "switch", "geomean", "vs fused"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
}

func TestVMPerfGeomeanEmpty(t *testing.T) {
	if g := VMPerfGeomeanSpeedup(nil); g != 0 {
		t.Errorf("geomean of no rows = %v, want 0", g)
	}
	if g := VMPerfGeomeanSpeedup([]VMPerfRow{{Engine: "switch"}}); g != 0 {
		t.Errorf("geomean with no fused rows = %v, want 0", g)
	}
	if g := VMPerfGeomeanCompiledOverFused([]VMPerfRow{{Engine: "fused", Speedup: 2}}); g != 0 {
		t.Errorf("compiled-over-fused geomean with no compiled rows = %v, want 0", g)
	}
}
