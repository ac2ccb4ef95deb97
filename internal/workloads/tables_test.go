package workloads_test

// Paper-table regression gates: the reproduced elimination-rate numbers
// for Table 1, Table 2, Figure 2, and Figure 3 are pinned as golden JSON
// under testdata/ and compared with per-cell tolerances, so a precision
// regression fails `go test ./...` instead of silently drifting. Only
// deterministic cells are gated — elimination percentages, relative
// throughput on the deterministic cost model, and code-size reductions —
// never wall-clock times or raw byte sizes.
//
// Regenerate after an intended precision change with:
//
//	go test ./internal/workloads -run TestPaperTableGolden -update-tables
//
// and justify the diff in the commit message.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"satbelim/internal/report"
)

var updateTables = flag.Bool("update-tables", false, "rewrite the paper-table golden files")

// Tolerances, in the unit of the gated cell. Elimination rates are
// percentages (points); Table 2 relative throughput is a ratio. The gates
// are deliberately tighter than the paper-vs-reproduction gap: they pin
// OUR numbers, catching unintended drift, not paper fidelity.
const (
	// tolPctPoints allows ±0.25 percentage points on any elimination or
	// reduction rate: below one workload's smallest single-site dynamic
	// contribution, so losing any site's elisions trips the gate, while
	// float formatting noise cannot.
	tolPctPoints = 0.25
	// tolRelative allows ±0.02 on Table 2 relative throughput (the paper
	// separates its modes by ≥ 0.009 — but those gaps come from barrier
	// accounting we pin exactly elsewhere; this gate catches cost-model
	// regressions an order larger than rounding).
	tolRelative = 0.02
)

// goldenCell is one gated value with its location for error messages.
type goldenCell struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

// goldenTable is the serialized gate: a named tolerance plus cells.
type goldenTable struct {
	Comment   string       `json:"comment"`
	Tolerance float64      `json:"tolerance"`
	Cells     []goldenCell `json:"cells"`
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// measure runs one experiment at satbbench's default settings.
func measure[T any](t *testing.T, e *report.Experiment[T]) []T {
	t.Helper()
	rows, err := e.Rows(report.NewRunner(report.Settings{InlineLimit: report.DefaultInlineLimit}))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func gate(t *testing.T, name string, tolerance float64, comment string, cells []goldenCell) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateTables {
		doc := goldenTable{Comment: comment, Tolerance: tolerance, Cells: cells}
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(cells))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-tables to generate)", err)
	}
	var want goldenTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	got := map[string]float64{}
	for _, c := range cells {
		got[c.Key] = c.Val
	}
	if len(got) != len(cells) {
		t.Fatalf("%s: duplicate cell keys in measurement", name)
	}
	for _, w := range want.Cells {
		g, ok := got[w.Key]
		if !ok {
			t.Errorf("%s: cell %s missing from measurement (workload or config removed?)", name, w.Key)
			continue
		}
		if diff := math.Abs(g - w.Val); diff > want.Tolerance {
			t.Errorf("%s: %s = %.2f, golden %.2f (|Δ|=%.2f > tolerance %.2f) — precision regression; "+
				"if intended, regenerate with -update-tables and justify",
				name, w.Key, g, w.Val, diff, want.Tolerance)
		}
		delete(got, w.Key)
	}
	for k := range got {
		t.Errorf("%s: new ungated cell %s — regenerate with -update-tables", name, k)
	}
}

// TestPaperTableGoldenTable1 gates every workload's dynamic elimination
// rates at the paper's operating point (inline limit 100, mode A).
func TestPaperTableGoldenTable1(t *testing.T) {
	rows := measure(t, report.Table1)
	var cells []goldenCell
	for _, r := range rows {
		cells = append(cells,
			goldenCell{r.Name + ".elim_pct", round2(r.ElimPct)},
			goldenCell{r.Name + ".pot_pct", round2(r.PotPct)},
			goldenCell{r.Name + ".field_elim", round2(r.FieldElim)},
			goldenCell{r.Name + ".array_elim", round2(r.ArrayElim)},
		)
	}
	gate(t, "table1.golden.json", tolPctPoints,
		"Table 1 dynamic elimination rates (%), inline limit 100, mode A; tolerance in percentage points",
		cells)
}

// TestPaperTableGoldenTable2 gates the jbb end-to-end relative
// throughputs on the deterministic cost model.
func TestPaperTableGoldenTable2(t *testing.T) {
	rows := measure(t, report.Table2)
	var cells []goldenCell
	for _, r := range rows {
		cells = append(cells, goldenCell{r.Mode + ".relative", round2(r.Relative)})
	}
	gate(t, "table2.golden.json", tolRelative,
		"Table 2 jbb relative throughput vs no-barrier (deterministic cost model); tolerance is a ratio",
		cells)
}

// TestPaperTableGoldenFigure2 gates the elimination rate of every
// (workload, inline limit, mode) point in the paper's sweep.
func TestPaperTableGoldenFigure2(t *testing.T) {
	points := measure(t, report.Figure2) // the paper's limits {0,25,50,100,200}
	var cells []goldenCell
	for _, p := range points {
		key := fmt.Sprintf("%s.limit%d.%s.elim_pct", p.Workload, p.Limit, p.Mode)
		cells = append(cells, goldenCell{key, round2(p.ElimPct)})
	}
	gate(t, "figure2.golden.json", tolPctPoints,
		"Figure 2 elimination rate (%) per (workload, inline limit, analysis mode); tolerance in percentage points",
		cells)
}

// TestPaperTableGoldenInterproc gates the interprocedural-summary
// recovery table: per workload, the dynamic elimination rate at inline
// limit 0 with and without summaries, plus the delta the summaries buy.
// At least one workload must keep a strictly positive delta — the
// summary layer's reason to exist.
func TestPaperTableGoldenInterproc(t *testing.T) {
	rows := measure(t, report.Interprocedural)
	var cells []goldenCell
	maxDelta := 0.0
	for _, r := range rows {
		cells = append(cells,
			goldenCell{r.Workload + ".limit0_pct", round2(r.Limit0Pct)},
			goldenCell{r.Workload + ".limit0_sum_pct", round2(r.Limit0SumPct)},
			goldenCell{r.Workload + ".delta_pct", round2(r.DeltaPct)},
		)
		if r.DeltaPct > maxDelta {
			maxDelta = r.DeltaPct
		}
	}
	if maxDelta <= tolPctPoints {
		t.Errorf("no workload gains from interprocedural summaries at limit 0 (max delta %.2f)", maxDelta)
	}
	gate(t, "interproc.golden.json", tolPctPoints,
		"Interprocedural summary recovery (%), inline limit 0, mode A with and without summaries; tolerance in percentage points",
		cells)
}

// TestPaperTableGoldenFigure3 gates the compiled-code-size reductions
// (never the raw sizes, which legitimately change with codegen).
func TestPaperTableGoldenFigure3(t *testing.T) {
	rows := measure(t, report.Figure3)
	var cells []goldenCell
	for _, r := range rows {
		cells = append(cells,
			goldenCell{r.Workload + ".reduce_f_pct", round2(r.ReduceFPct)},
			goldenCell{r.Workload + ".reduce_a_pct", round2(r.ReduceAPct)},
		)
	}
	gate(t, "figure3.golden.json", tolPctPoints,
		"Figure 3 compiled-code-size reduction (%) for modes F and A vs B; tolerance in percentage points",
		cells)
}

// TestPaperTableGoldenNullOrSame gates the §4.3 null-or-same share of
// barrier executions per workload (inline limit 100, mode A plus the
// null-or-same extension).
func TestPaperTableGoldenNullOrSame(t *testing.T) {
	rows := measure(t, report.NullOrSame)
	var cells []goldenCell
	for _, r := range rows {
		cells = append(cells, goldenCell{r.Workload + ".pct", round2(r.Pct)})
	}
	gate(t, "null_or_same.golden.json", tolPctPoints,
		"§4.3 null-or-same share of barrier executions (%), inline limit 100, mode A + null-or-same; tolerance in percentage points",
		cells)
}

// TestPaperTableGoldenRearrange gates the §4.3 array-rearrangement
// coverage per workload under concurrent SATB marking. Retrace counts
// are exact integers, so any drift beyond the shared tolerance means the
// protocol retraced a different number of times.
func TestPaperTableGoldenRearrange(t *testing.T) {
	rows := measure(t, report.Rearrangement)
	var cells []goldenCell
	for _, r := range rows {
		cells = append(cells,
			goldenCell{r.Workload + ".elim_pct", round2(r.ElimPct)},
			goldenCell{r.Workload + ".rearrange_pct", round2(r.RearrangePct)},
			goldenCell{r.Workload + ".combined_pct", round2(r.WithRearrangePct)},
			goldenCell{r.Workload + ".retraces", float64(r.Retraces)},
		)
	}
	gate(t, "rearrange.golden.json", tolPctPoints,
		"§4.3 array rearrangements, inline limit 100, mode A + rearrange under SATB marking: elimination/rearrange/combined (%) and retrace counts; tolerance in percentage points (counts exact)",
		cells)
}
