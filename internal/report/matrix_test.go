package report

import (
	"strings"
	"testing"

	"satbelim/internal/core"
)

// TestExperimentsShareCells runs the whole experiment list on one Runner:
// every cell is measured once, and the experiments that read the mode-A
// default-limit cell share its one record per workload.
func TestExperimentsShareCells(t *testing.T) {
	r := NewRunner(defaults)
	doc := NewDocument("test")
	for _, e := range Experiments {
		if _, err := e.Emit(r, doc); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, rec := range r.records {
		key := rec.Cell.String()
		if seen[key] {
			t.Errorf("cell measured twice: %s", key)
		}
		seen[key] = true
	}

	recordOf := func(c Cell) *Record {
		t.Helper()
		rec := r.byKey[c.String()]
		if rec == nil {
			t.Fatalf("no record for %s", c)
		}
		return rec
	}
	t1, perf := Table1.cells(defaults), Perf.cells(defaults)
	fig2, interp := Figure2.cells(defaults), Interprocedural.cells(defaults)
	for i, c := range t1 {
		want := recordOf(c)
		if got := recordOf(perf[i]); got != want {
			t.Errorf("%s: perf does not share table 1's record", c.Workload.Name)
		}
		if got := recordOf(interp[3*i+2]); got != want || interp[3*i+2].Limit != DefaultInlineLimit {
			t.Errorf("%s: the interprocedural baseline does not share table 1's record", c.Workload.Name)
		}
		shared := 0
		for _, f := range fig2 {
			if f.Workload.Name == c.Workload.Name && f.Limit == DefaultInlineLimit && f.Analysis.Mode == core.ModeFieldArray {
				if recordOf(f) != want {
					t.Errorf("%s: figure 2 (limit 100, mode A) does not share table 1's record", c.Workload.Name)
				}
				shared++
			}
		}
		if shared != 1 {
			t.Errorf("%s: figure 2 has %d limit-100 mode-A cells, want 1", c.Workload.Name, shared)
		}
	}
}

// TestFigure3TitleReportsLimit: the title names the limit the rows were
// measured at, not the default.
func TestFigure3TitleReportsLimit(t *testing.T) {
	r := NewRunner(Settings{InlineLimit: 50})
	out, err := Figure3.Emit(r, NewDocument("test"))
	if err != nil {
		t.Fatal(err)
	}
	if title, _, _ := strings.Cut(out, "\n"); !strings.Contains(title, "(inline limit 50)") {
		t.Errorf("title %q does not report inline limit 50", title)
	}
	for _, rec := range r.records {
		if rec.Build.Options.InlineLimit != 50 {
			t.Errorf("%s compiled at inline limit %d, want 50", rec.Cell, rec.Build.Options.InlineLimit)
		}
	}
}
