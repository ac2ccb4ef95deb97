package report

import (
	"fmt"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// modeA is the paper's analysis configuration (fields and arrays).
var modeA = core.Options{Mode: core.ModeFieldArray}

// conditional runs conditional SATB barriers with no collector, so the
// counters see every barrier execution and nothing is marked.
var conditional = &vm.Config{Barrier: satb.ModeConditional}

// satbMarking runs conditional barriers under concurrent SATB marking
// with the snapshot invariant checked, so retraces are real.
var satbMarking = &vm.Config{
	Barrier:            satb.ModeConditional,
	GC:                 vm.GCSATB,
	TriggerEveryAllocs: 200,
	CheckInvariant:     true,
}

// Table1Row is one benchmark's dynamic results, paired with the paper's.
type Table1Row struct {
	Name       string
	Total      uint64
	ElimPct    float64
	PotPct     float64
	FieldShare float64
	ArrayShare float64
	FieldElim  float64
	ArrayElim  float64
	Paper      workloads.PaperRow
}

// Table1 measures the dynamic elimination results for every workload
// (analysis mode A, the paper's configuration), in the paper's layout.
var Table1 = &Experiment[Table1Row]{
	name: "table1", usage: "Table 1: dynamic barrier elimination",
	cells: func(s Settings) []Cell {
		return perWorkload(Cell{Limit: s.InlineLimit, Analysis: modeA, Run: conditional})
	},
	project: perRecord(func(r *Record) Table1Row {
		s := r.Summary
		return Table1Row{
			Name:       r.Workload.Name,
			Total:      s.TotalExecs,
			ElimPct:    r.elimPct(),
			PotPct:     pct(s.PotPreNull, s.TotalExecs),
			FieldShare: pct(s.FieldExecs, s.TotalExecs),
			ArrayShare: pct(s.ArrayExecs, s.TotalExecs),
			FieldElim:  pct(s.FieldElided, s.FieldExecs),
			ArrayElim:  pct(s.ArrayElided, s.ArrayExecs),
			Paper:      r.Workload.Paper,
		}
	}),
	table: table[Table1Row]{
		title: "Table 1: dynamic barrier elimination (measured | paper)",
		head: fmt.Sprintf("%-7s %10s %15s %15s %13s %15s %15s",
			"bench", "total", "% elim", "% pot pre-null", "field/array", "field % elim", "array % elim"),
		row: "%-7s %10d %6.1f | %5.1f %6.1f | %6.1f %3.0f/%2.0f | %2.0f/%2.0f %6.1f | %6.1f %6.1f | %6.1f",
		vals: func(r Table1Row) []any {
			return []any{r.Name, r.Total, r.ElimPct, r.Paper.ElimPct, r.PotPct, r.Paper.PotPreNullPct,
				r.FieldShare, r.ArrayShare, r.Paper.FieldPct, r.Paper.ArrayPct,
				r.FieldElim, r.Paper.FieldElimPct, r.ArrayElim, r.Paper.ArrayElimPct}
		},
	},
	store: func(d *Document, rows []Table1Row) { d.Table1 = rows },
}

// Table2Row is one barrier-mode configuration of the jbb end-to-end
// experiment.
type Table2Row struct {
	Mode       string
	Cost       uint64  // total cost-model units
	Throughput float64 // work units per 1000 cost units
	Relative   float64 // vs no-barrier
}

// table2Modes are the paper's Table 2 modes: no-barrier, always-log
// (check elided, no analysis) and always-log-elim (always-log plus
// barrier elimination).
var table2Modes = []struct {
	name    string
	barrier satb.BarrierMode
	opts    core.Options
}{
	{"no-barrier", satb.ModeNoBarrier, core.Options{Mode: core.ModeNone}},
	{"always-log", satb.ModeAlwaysLog, core.Options{Mode: core.ModeNone}},
	{"always-log-elim", satb.ModeAlwaysLog, modeA},
}

// table2Paper is the paper's relative throughput per mode.
var table2Paper = map[string]float64{"no-barrier": 1.000, "always-log": 0.975, "always-log-elim": 0.984}

// Table2 measures end-to-end barrier cost on jbb under the modes of the
// paper's Table 2, on the deterministic cost model.
var Table2 = &Experiment[Table2Row]{
	name: "table2", usage: "Table 2: jbb end-to-end barrier cost",
	cells: func(s Settings) []Cell {
		var cells []Cell
		for _, m := range table2Modes {
			cells = append(cells, Cell{Workload: workloads.JBB(), Limit: s.InlineLimit,
				Analysis: m.opts, Run: &vm.Config{Barrier: m.barrier}})
		}
		return cells
	},
	project: func(recs []*Record) ([]Table2Row, error) {
		rows := make([]Table2Row, len(recs))
		for i, r := range recs {
			tp := throughput(r.Result)
			rows[i] = Table2Row{Mode: table2Modes[i].name, Cost: r.Result.TotalCost(),
				Throughput: tp, Relative: tp / throughput(recs[0].Result)}
		}
		return rows, nil
	},
	table: table[Table2Row]{
		title: "Table 2: jbb end-to-end barrier cost (deterministic cost model)",
		head:  fmt.Sprintf("%-16s %12s %12s %10s %10s", "barrier mode", "cost units", "throughput", "relative", "paper"),
		row:   "%-16s %12d %12.2f %10.3f %10.3f",
		vals:  func(r Table2Row) []any { return []any{r.Mode, r.Cost, r.Throughput, r.Relative, table2Paper[r.Mode]} },
	},
	store: func(d *Document, rows []Table2Row) { d.Table2 = rows },
}

// Fig2Point is one (inline limit, analysis mode) observation for one
// workload.
type Fig2Point struct {
	Workload     string
	Limit        int
	Mode         core.Mode
	ElimPct      float64
	CompileTime  time.Duration
	AnalysisTime time.Duration
	CodeBytes    int
}

// Figure2Limits is the paper's sweep.
var Figure2Limits = []int{0, 25, 50, 100, 200}

// Figure2 sweeps the paper's inlining levels × analysis modes over all
// workloads, whatever the Settings' inline limit.
var Figure2 = &Experiment[Fig2Point]{
	name: "fig2", usage: "Figure 2: inline limit sweep",
	cells: func(Settings) []Cell {
		var variants []Cell
		for _, limit := range Figure2Limits {
			for _, mode := range []core.Mode{core.ModeNone, core.ModeField, core.ModeFieldArray} {
				variants = append(variants, Cell{Limit: limit, Analysis: core.Options{Mode: mode}, Run: conditional})
			}
		}
		return perWorkload(variants...)
	},
	project: perRecord(func(r *Record) Fig2Point {
		return Fig2Point{
			Workload:     r.Workload.Name,
			Limit:        r.Limit,
			Mode:         r.Analysis.Mode,
			ElimPct:      r.elimPct(),
			CompileTime:  r.Build.CompileTime(),
			AnalysisTime: r.Build.AnalysisTime,
			CodeBytes:    r.Build.BytecodeBytes,
		}
	}),
	table: table[Fig2Point]{
		title: "Figure 2: inline limit vs dynamic elimination and compile time",
		head: fmt.Sprintf("%-7s %6s %5s %8s %12s %12s %10s",
			"bench", "limit", "mode", "% elim", "compile", "analysis", "bytecode"),
		row: "%-7s %6d %5s %8.1f %12v %12v %10d",
		vals: func(p Fig2Point) []any {
			return []any{p.Workload, p.Limit, p.Mode, p.ElimPct, p.CompileTime.Round(time.Microsecond),
				p.AnalysisTime.Round(time.Microsecond), p.CodeBytes}
		},
	},
	store: func(d *Document, rows []Fig2Point) { d.Figure2 = rows },
}

// Fig3Row is one workload's compiled-code-size comparison.
type Fig3Row struct {
	Workload   string
	SizeB      int
	SizeF      int
	SizeA      int
	ReduceFPct float64
	ReduceAPct float64
}

// Figure3 measures compiled code size (bytecode + inline barrier
// sequences) under B, F and A at the Settings' inline limit (paper: 2–6%
// reduction). Its cells compile only.
var Figure3 = &Experiment[Fig3Row]{
	name: "fig3", usage: "Figure 3: compiled code size",
	cells: func(s Settings) []Cell {
		return perWorkload(
			Cell{Limit: s.InlineLimit, Analysis: core.Options{Mode: core.ModeNone}},
			Cell{Limit: s.InlineLimit, Analysis: core.Options{Mode: core.ModeField}},
			Cell{Limit: s.InlineLimit, Analysis: modeA})
	},
	project: func(recs []*Record) ([]Fig3Row, error) {
		var rows []Fig3Row
		for i := 0; i < len(recs); i += 3 {
			b, f, a := recs[i].Build.CompiledCodeSize(), recs[i+1].Build.CompiledCodeSize(), recs[i+2].Build.CompiledCodeSize()
			rows = append(rows, Fig3Row{
				Workload:   recs[i].Workload.Name,
				SizeB:      b,
				SizeF:      f,
				SizeA:      a,
				ReduceFPct: 100 * float64(b-f) / float64(b),
				ReduceAPct: 100 * float64(b-a) / float64(b),
			})
		}
		return rows, nil
	},
	table: table[Fig3Row]{
		title: "Figure 3: compiled code size by analysis mode (inline limit {limit})",
		head:  fmt.Sprintf("%-7s %10s %10s %10s %10s %10s", "bench", "B bytes", "F bytes", "A bytes", "F % cut", "A % cut"),
		row:   "%-7s %10d %10d %10d %10.1f %10.1f",
		vals: func(r Fig3Row) []any {
			return []any{r.Workload, r.SizeB, r.SizeF, r.SizeA, r.ReduceFPct, r.ReduceAPct}
		},
	},
	store: func(d *Document, rows []Fig3Row) { d.Figure3 = rows },
}

// NullOrSameRow reports the §4.3 extension's measured share.
type NullOrSameRow struct {
	Workload string
	Pct      float64
	PaperPct float64
}

// NullOrSame measures the share of barrier executions elided by the
// null-or-same extension, next to the paper's hand-measured shares.
var NullOrSame = &Experiment[NullOrSameRow]{
	name: "nullorsame", usage: "§4.3 null-or-same measurements",
	cells: func(s Settings) []Cell {
		return perWorkload(Cell{Limit: s.InlineLimit,
			Analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true}, Run: conditional})
	},
	project: perRecord(func(r *Record) NullOrSameRow {
		return NullOrSameRow{
			Workload: r.Workload.Name,
			Pct:      pct(r.Summary.NullOrSameExecs, r.Summary.TotalExecs),
			PaperPct: r.Workload.NullOrSamePaperPct,
		}
	}),
	table: table[NullOrSameRow]{
		title: "§4.3 null-or-same stores (% of barrier executions; measured | paper)",
		row:   "%-7s %6.1f | %4.1f",
		vals:  func(r NullOrSameRow) []any { return []any{r.Workload, r.Pct, r.PaperPct} },
	},
	store: func(d *Document, rows []NullOrSameRow) { d.NullOrSame = rows },
}

// InterprocRow compares elimination without inlining, with and without
// interprocedural escape summaries, against the inlined baseline.
type InterprocRow struct {
	Workload       string
	Limit0Pct      float64 // no inlining, intra-procedural only
	Limit0SumPct   float64 // no inlining, with summaries
	InlinedBasePct float64 // inline limit 100 (the paper's setting)
	// DeltaPct is what the summaries buy: Limit0SumPct - Limit0Pct
	// (additive to schema v1).
	DeltaPct float64
}

// Interprocedural measures how much of the inlining-dependent precision
// the escape summaries recover at inline limit 0 (the paper's §2.4 "lack
// of interprocedural techniques" future work). Its limits are fixed.
var Interprocedural = &Experiment[InterprocRow]{
	name: "interprocedural", usage: "escape-summary recovery at inline limit 0",
	cells: func(Settings) []Cell {
		return perWorkload(
			Cell{Limit: 0, Analysis: modeA, Run: conditional},
			Cell{Limit: 0, Analysis: core.Options{Mode: core.ModeFieldArray, Interprocedural: true}, Run: conditional},
			Cell{Limit: DefaultInlineLimit, Analysis: modeA, Run: conditional})
	},
	project: func(recs []*Record) ([]InterprocRow, error) {
		var rows []InterprocRow
		for i := 0; i < len(recs); i += 3 {
			plain, sum := recs[i].elimPct(), recs[i+1].elimPct()
			rows = append(rows, InterprocRow{Workload: recs[i].Workload.Name, Limit0Pct: plain,
				Limit0SumPct: sum, InlinedBasePct: recs[i+2].elimPct(), DeltaPct: sum - plain})
		}
		return rows, nil
	},
	table: table[InterprocRow]{
		title: "Interprocedural escape summaries (dynamic % eliminated)",
		head:  fmt.Sprintf("%-7s %14s %16s %8s %14s", "bench", "limit 0", "limit 0 + sums", "delta", "limit 100"),
		row:   "%-7s %14.1f %16.1f %+8.1f %14.1f",
		vals: func(r InterprocRow) []any {
			return []any{r.Workload, r.Limit0Pct, r.Limit0SumPct, r.DeltaPct, r.InlinedBasePct}
		},
	},
	store: func(d *Document, rows []InterprocRow) { d.Interprocedural = rows },
}

// RearrangeRow reports the §4.3 array-rearrangement extension's effect on
// one workload.
type RearrangeRow struct {
	Workload string
	// ElimPct is the plain mode-A elimination; WithRearrangePct adds the
	// swap stores covered by the optimistic retrace protocol.
	ElimPct          float64
	RearrangePct     float64
	WithRearrangePct float64
	Retraces         uint64
}

// Rearrangement measures how much of each workload's barrier traffic the
// swap-pair protocol covers, on top of the pre-null eliminations, under
// concurrent SATB marking so retrace counts are real.
var Rearrangement = &Experiment[RearrangeRow]{
	name: "rearrange", usage: "§4.3 array-rearrangement measurements",
	cells: func(s Settings) []Cell {
		return perWorkload(Cell{Limit: s.InlineLimit,
			Analysis: core.Options{Mode: core.ModeFieldArray, Rearrange: true}, Run: satbMarking})
	},
	project: perRecord(func(r *Record) RearrangeRow {
		s := r.Summary
		return RearrangeRow{
			Workload:         r.Workload.Name,
			ElimPct:          pct(s.ElidedExecs, s.TotalExecs),
			RearrangePct:     pct(s.RearrangeExecs, s.TotalExecs),
			WithRearrangePct: pct(s.ElidedExecs+s.RearrangeExecs, s.TotalExecs),
			Retraces:         s.Retraces,
		}
	}),
	table: table[RearrangeRow]{
		title: "§4.3 array rearrangements (optimistic retrace protocol)",
		head:  fmt.Sprintf("%-7s %10s %12s %12s %10s", "bench", "% elim", "% rearrange", "% combined", "retraces"),
		row:   "%-7s %10.1f %12.1f %12.1f %10d",
		vals: func(r RearrangeRow) []any {
			return []any{r.Workload, r.ElimPct, r.RearrangePct, r.WithRearrangePct, r.Retraces}
		},
	},
	store: func(d *Document, rows []RearrangeRow) { d.Rearrange = rows },
}

// PerfRow is one workload's compile-side performance snapshot: per-stage
// times, analysis iteration counts, and the elimination it bought. The
// ns fields are what the cross-PR BENCH_*.json trajectory tracks.
type PerfRow struct {
	Workload      string  `json:"workload"`
	Workers       int     `json:"workers"`
	CompileNs     int64   `json:"compile_ns"`
	FrontendNs    int64   `json:"frontend_ns"`
	InlineNs      int64   `json:"inline_ns"`
	VerifyNs      int64   `json:"verify_ns"`
	AnalysisNs    int64   `json:"analysis_ns"`
	BlockVisits   int     `json:"block_visits"`
	Methods       int     `json:"methods"`
	BytecodeBytes int     `json:"bytecode_bytes"`
	ElimPct       float64 `json:"elim_pct"`
}

// Perf reports every workload's mode-A per-stage compile times,
// fixed-point block visits, and dynamic elimination; it shares Table 1's
// cells.
var Perf = &Experiment[PerfRow]{
	name: "perf", usage: "compile-side performance snapshot (stage times, block visits)",
	cells: Table1.cells,
	project: perRecord(func(r *Record) PerfRow {
		b := r.Build
		return PerfRow{
			Workload:      r.Workload.Name,
			Workers:       b.Options.Workers,
			CompileNs:     b.CompileTime().Nanoseconds(),
			FrontendNs:    b.FrontendTime.Nanoseconds(),
			InlineNs:      b.InlineTime.Nanoseconds(),
			VerifyNs:      b.VerifyTime.Nanoseconds(),
			AnalysisNs:    b.AnalysisTime.Nanoseconds(),
			BlockVisits:   b.Report.BlockVisits(),
			Methods:       len(b.Report.Methods),
			BytecodeBytes: b.BytecodeBytes,
			ElimPct:       r.elimPct(),
		}
	}),
	table: table[PerfRow]{
		title: "Compile performance (mode A)",
		head:  fmt.Sprintf("%-7s %10s %10s %10s %8s %8s", "bench", "compile", "analysis", "visits", "methods", "% elim"),
		row:   "%-7s %10v %10v %10d %8d %8.1f",
		vals: func(r PerfRow) []any {
			return []any{r.Workload, time.Duration(r.CompileNs).Round(time.Microsecond),
				time.Duration(r.AnalysisNs).Round(time.Microsecond), r.BlockVisits, r.Methods, r.ElimPct}
		},
	},
	store: func(d *Document, rows []PerfRow) { d.Perf = rows },
}
