// Package report regenerates the paper's evaluation tables and figures
// over the MiniJava workload suite: Table 1 (dynamic barrier elimination),
// Table 2 (jbb end-to-end barrier cost), Figure 2 (inlining level vs
// effectiveness and compile time), Figure 3 (compiled code size), the
// §4.3 null-or-same and rearrangement measurements, and the
// interprocedural, barrier-flavor, soundness-oracle and performance
// tables.
//
// Every experiment is a declaration over one matrix. A Cell is workload ×
// inline limit × core.Options × vm.Config; a Runner compiles and runs each
// unique cell once and checks its soundness in one place. An Experiment
// names its cells, projects their Records onto its row type, and lays out
// its columns for the one table renderer.
package report

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// DefaultInlineLimit is the paper's chosen operating point (§4.4: "The
// 100-bytecode inlining level gains essentially all the analysis
// results").
const DefaultInlineLimit = 100

// Settings are the knobs every experiment of one Runner shares.
type Settings struct {
	// InlineLimit governs every experiment except Figure 2 and
	// Interprocedural, which measure at fixed limits.
	InlineLimit int
	// Workers is the per-method analysis fan-out (<= 0: GOMAXPROCS).
	Workers int
	// Deadline, when nonzero, is the per-method analysis wall-clock
	// budget; methods over it degrade to the sound all-barriers result.
	Deadline time.Duration
}

// Cell is one point of the experiment matrix. A nil Run compiles only.
type Cell struct {
	Workload *workloads.Workload
	Limit    int
	Analysis core.Options
	Run      *vm.Config
}

// String names the cell; it is also the Runner's dedupe key.
func (c Cell) String() string {
	return fmt.Sprintf("%s limit %d %+v run %+v", c.Workload.Name, c.Limit, c.Analysis, c.Run)
}

// perWorkload crosses every workload with the variants, workload-major.
func perWorkload(variants ...Cell) []Cell {
	var cells []Cell
	for _, w := range workloads.All() {
		for _, v := range variants {
			v.Workload = w
			cells = append(cells, v)
		}
	}
	return cells
}

// Record is one cell's outcome.
type Record struct {
	Cell
	Build *pipeline.Build
	// Result and Summary are the run's (nil and zero for compile-only
	// cells and failed runs).
	Result  *vm.Result
	Summary satb.Summary
	// Err is the run's failure or its unsound elisions.
	Err error
}

// elimPct is the share of barrier executions at pre-null-elided sites.
func (r *Record) elimPct() float64 { return pct(r.Summary.ElidedExecs, r.Summary.TotalExecs) }

// Runner measures the matrix: each unique cell is compiled (through the
// shared build cache) and run once, however many experiments read it.
// A Runner is not safe for concurrent use.
type Runner struct {
	Settings
	records []*Record
	byKey   map[string]*Record
}

// NewRunner returns an empty Runner.
func NewRunner(s Settings) *Runner {
	return &Runner{Settings: s, byKey: map[string]*Record{}}
}

// Run returns the records of cells in order, measuring the ones not seen
// before. A compile error aborts; a run failure stays in Record.Err.
func (r *Runner) Run(cells []Cell) ([]*Record, error) {
	recs := make([]*Record, len(cells))
	for i, c := range cells {
		key := c.String()
		rec, ok := r.byKey[key]
		if !ok {
			var err error
			if rec, err = r.measure(c); err != nil {
				return nil, err
			}
			r.byKey[key] = rec
			r.records = append(r.records, rec)
		}
		recs[i] = rec
	}
	return recs, nil
}

// measure compiles and runs one cell. It is the soundness check of every
// experiment: an elided site that observed a non-null pre-value fails.
func (r *Runner) measure(c Cell) (*Record, error) {
	opts := c.Analysis
	opts.Deadline = r.Deadline
	b, err := pipeline.Compile(c.Workload.Name, c.Workload.Source, pipeline.Options{
		InlineLimit: c.Limit,
		Analysis:    opts,
		Workers:     r.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("%v: %w", c, err)
	}
	rec := &Record{Cell: c, Build: b}
	if c.Run == nil {
		return rec, nil
	}
	res, err := vm.New(b.Program, *c.Run).Run()
	if err != nil {
		rec.Err = err
		return rec, nil
	}
	rec.Result, rec.Summary = res, res.Counters.Summarize()
	if len(rec.Summary.UnsoundSites) > 0 {
		rec.Err = fmt.Errorf("unsound sites %v", rec.Summary.UnsoundSites)
	}
	return rec, nil
}

// Experiment declares one table: the cells it reads, the projection of
// their records (in cell order) onto its row type, its layout, and the
// Document section it fills.
type Experiment[T any] struct {
	name, usage string // satbbench flag and its help
	cells       func(Settings) []Cell
	project     func([]*Record) ([]T, error)
	table       table[T]
	store       func(*Document, []T)
	// violations keeps run failures in the rows instead of failing the
	// experiment (the soundness oracle reports them per row).
	violations bool
}

// Section is an experiment of any row type, as satbbench drives it.
type Section interface {
	Flag() (name, usage string)
	Emit(r *Runner, doc *Document) (string, error)
}

// Experiments lists every experiment in satbbench's print order.
var Experiments = []Section{
	Perf, Table1, Table2, Figure2, Figure3, NullOrSame, Rearrangement,
	Barriers, Interprocedural, VMPerf, Oracle,
}

// Flag returns the experiment's satbbench flag name and help text.
func (e *Experiment[T]) Flag() (string, string) { return e.name, e.usage }

// Rows measures the experiment's cells on r and projects their records.
func (e *Experiment[T]) Rows(r *Runner) ([]T, error) {
	recs, err := r.Run(e.cells(r.Settings))
	if err != nil {
		return nil, fmt.Errorf("%s %w", e.name, err)
	}
	for _, rec := range recs {
		if rec.Err != nil && !e.violations {
			return nil, fmt.Errorf("%s %v: %w", e.name, rec.Cell, rec.Err)
		}
	}
	return e.project(recs)
}

// Format renders rows measured under s.
func (e *Experiment[T]) Format(s Settings, rows []T) string {
	return e.table.render(s, rows)
}

// Emit measures the experiment, stores its rows in doc and returns them
// rendered.
func (e *Experiment[T]) Emit(r *Runner, doc *Document) (string, error) {
	rows, err := e.Rows(r)
	if err != nil {
		return "", err
	}
	e.store(doc, rows)
	return e.Format(r.Settings, rows), nil
}

// perRecord projects one row per record.
func perRecord[T any](f func(*Record) T) func([]*Record) ([]T, error) {
	return func(recs []*Record) ([]T, error) {
		rows := make([]T, len(recs))
		for i, rec := range recs {
			rows[i] = f(rec)
		}
		return rows, nil
	}
}

// table is an experiment's layout for the one renderer. The title's
// "{limit}" becomes the Settings' inline limit; head is the formatted
// header line ("" for none); row formats vals(row); group separates runs
// of rows with a blank line when the first column changes; footer
// appends summary lines.
type table[T any] struct {
	title  string
	head   string
	row    string
	vals   func(T) []any
	group  bool
	footer func([]T) string
}

func (t table[T]) render(s Settings, rows []T) string {
	var b strings.Builder
	b.WriteString(strings.ReplaceAll(t.title, "{limit}", strconv.Itoa(s.InlineLimit)) + "\n")
	if t.head != "" {
		b.WriteString(t.head + "\n")
	}
	var last any
	for i, r := range rows {
		v := t.vals(r)
		if t.group && i > 0 && v[0] != last {
			b.WriteString("\n")
		}
		last = v[0]
		fmt.Fprintf(&b, t.row+"\n", v...)
	}
	if t.footer != nil {
		b.WriteString(t.footer(rows))
	}
	return b.String()
}

// throughput is work units per 1000 cost-model units.
func throughput(res *vm.Result) float64 {
	return 1000 * float64(res.Steps) / float64(res.TotalCost())
}

func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}
