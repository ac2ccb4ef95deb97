package report

import (
	"strings"
	"testing"

	"satbelim/internal/core"
)

// defaults are satbbench's default settings.
var defaults = Settings{InlineLimit: DefaultInlineLimit}

func TestTable1ShapesHold(t *testing.T) {
	rows, err := Table1.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		// Paper-invariant: eliminations never exceed the potentially-
		// pre-null upper bound.
		if r.ElimPct > r.PotPct+0.01 {
			t.Errorf("%s: elim %.1f%% exceeds potential %.1f%%", r.Name, r.ElimPct, r.PotPct)
		}
	}
	// db is the low outlier; mtrt the high one (as in the paper).
	for _, r := range rows {
		if r.Name != "db" && r.ElimPct <= byName["db"].ElimPct {
			t.Errorf("%s elim %.1f%% should exceed db's %.1f%%", r.Name, r.ElimPct, byName["db"].ElimPct)
		}
		if r.Name != "mtrt" && r.ElimPct >= byName["mtrt"].ElimPct {
			t.Errorf("mtrt should have the highest elimination, but %s has %.1f%%", r.Name, r.ElimPct)
		}
	}
	// mtrt is the array-analysis success case; jess/db/jack/jbb get ~0.
	if byName["mtrt"].ArrayElim < 30 {
		t.Errorf("mtrt array elim = %.1f%%", byName["mtrt"].ArrayElim)
	}
	for _, n := range []string{"jess", "db", "jack", "jbb"} {
		if byName[n].ArrayElim > 5 {
			t.Errorf("%s array elim should be ~0, got %.1f%%", n, byName[n].ArrayElim)
		}
	}
	out := Table1.Format(defaults, rows)
	if !strings.Contains(out, "jess") || !strings.Contains(out, "field/array") {
		t.Errorf("format: %s", out)
	}
}

func TestTable2Ordering(t *testing.T) {
	rows, err := Table2.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]Table2Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	nb, al, ale := byMode["no-barrier"], byMode["always-log"], byMode["always-log-elim"]
	if nb.Relative != 1.0 {
		t.Errorf("no-barrier relative = %.3f", nb.Relative)
	}
	// The paper's ordering: no-barrier > always-log-elim > always-log.
	if !(ale.Relative > al.Relative) {
		t.Errorf("elimination should recover cost: elim %.4f vs always-log %.4f", ale.Relative, al.Relative)
	}
	if !(ale.Relative < 1.0) {
		t.Errorf("always-log-elim should still pay some cost: %.4f", ale.Relative)
	}
	if al.Relative < 0.80 || al.Relative > 0.999 {
		t.Errorf("always-log relative %.4f outside plausible band", al.Relative)
	}
	out := Table2.Format(defaults, rows)
	if !strings.Contains(out, "always-log-elim") {
		t.Errorf("format: %s", out)
	}
}

func TestFigure2Monotonicity(t *testing.T) {
	points, err := Figure2.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	// Index by workload/limit/mode.
	type key struct {
		w    string
		l    int
		mode core.Mode
	}
	idx := map[key]Fig2Point{}
	for _, p := range points {
		idx[key{p.Workload, p.Limit, p.Mode}] = p
	}
	for _, w := range []string{"jess", "db", "javac", "mtrt", "jack", "jbb"} {
		// Mode B never eliminates.
		for _, l := range []int{0, 100} {
			if e := idx[key{w, l, core.ModeNone}].ElimPct; e != 0 {
				t.Errorf("%s limit %d mode B elim = %.1f", w, l, e)
			}
		}
		// Inlining at 100 must not lose eliminations vs 0 for mode A,
		// and should gain substantially on ctor-heavy benchmarks.
		a0 := idx[key{w, 0, core.ModeFieldArray}].ElimPct
		a100 := idx[key{w, 100, core.ModeFieldArray}].ElimPct
		if a100+0.5 < a0 {
			t.Errorf("%s: inlining reduced eliminations: %.1f -> %.1f", w, a0, a100)
		}
		// A ⊇ F at the same limit.
		f100 := idx[key{w, 100, core.ModeField}].ElimPct
		if a100+0.01 < f100 {
			t.Errorf("%s: mode A (%.1f) should not trail mode F (%.1f)", w, a100, f100)
		}
	}
	// Somewhere the field analysis needs inlining to see constructors.
	gain := false
	for _, w := range []string{"jess", "db", "jbb"} {
		if idx[key{w, 100, core.ModeFieldArray}].ElimPct > idx[key{w, 0, core.ModeFieldArray}].ElimPct+5 {
			gain = true
		}
	}
	if !gain {
		t.Error("expected a clear inlining benefit on at least one ctor-heavy workload")
	}
}

func TestFigure3Reductions(t *testing.T) {
	rows, err := Figure3.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SizeA > r.SizeF || r.SizeF > r.SizeB {
			t.Errorf("%s: sizes must shrink B>=F>=A: %d %d %d", r.Workload, r.SizeB, r.SizeF, r.SizeA)
		}
		if r.ReduceAPct < 0.3 || r.ReduceAPct > 25 {
			t.Errorf("%s: A reduction %.1f%% outside plausible band", r.Workload, r.ReduceAPct)
		}
	}
}

func TestInterproceduralRecoversInliningPrecision(t *testing.T) {
	rows, err := Interprocedural.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, r := range rows {
		if r.Limit0SumPct < r.Limit0Pct-0.01 {
			t.Errorf("%s: summaries lost precision: %.1f -> %.1f", r.Workload, r.Limit0Pct, r.Limit0SumPct)
		}
		if r.Limit0SumPct > r.InlinedBasePct+0.01 {
			// More precision than inlining is possible in principle but
			// would be surprising here; flag it for inspection.
			t.Errorf("%s: summaries exceed the inlined baseline: %.1f vs %.1f", r.Workload, r.Limit0SumPct, r.InlinedBasePct)
		}
		if r.Limit0SumPct >= r.InlinedBasePct-0.5 {
			recovered++
		}
	}
	if recovered < 4 {
		t.Errorf("expected most workloads to recover the inlined precision via summaries, got %d/6: %+v", recovered, rows)
	}
}

func TestRearrangementCoversDbSwaps(t *testing.T) {
	rows, err := Rearrangement.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RearrangeRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// The paper's §4.3 observation: db's dominant stores are sort swaps
	// (">70% of stores"); the retrace protocol covers them.
	db := byName["db"]
	if db.RearrangePct < 60 {
		t.Errorf("db rearrange coverage %.1f%%, want the dominant swap share", db.RearrangePct)
	}
	if db.WithRearrangePct < 70 {
		t.Errorf("db combined coverage %.1f%%", db.WithRearrangePct)
	}
	// No other workload has the swap idiom.
	for _, n := range []string{"jess", "javac", "mtrt", "jack", "jbb"} {
		if byName[n].RearrangePct > 5 {
			t.Errorf("%s unexpectedly rearrange-covered: %.1f%%", n, byName[n].RearrangePct)
		}
	}
}

func TestNullOrSameMeasured(t *testing.T) {
	rows, err := NullOrSame.Rows(NewRunner(defaults))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]NullOrSameRow{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// The paper reports null-or-same sites in javac, jack, and jbb.
	for _, n := range []string{"javac", "jack", "jbb"} {
		if byName[n].Pct <= 0 {
			t.Errorf("%s: expected some null-or-same executions", n)
		}
	}
	// jbb's share is the smallest of the three (paper: 4%% vs 14-15%%).
	if !(byName["jbb"].Pct < byName["javac"].Pct && byName["jbb"].Pct < byName["jack"].Pct) {
		t.Errorf("jbb should have the smallest null-or-same share: %+v", rows)
	}
}
