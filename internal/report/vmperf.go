package report

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// VMPerfRow is one workload × engine point of the VM execution-engine
// performance snapshot: wall time, instruction throughput, Go heap
// allocations per run, and — for the compiled tier — the tier-up /
// deopt / segment-execution counters of the timed run. Fused and
// compiled rows carry the speedup over the switch interpreter on the
// same build; compiled rows additionally carry the compiled-over-fused
// ratio (the tier's headline number).
type VMPerfRow struct {
	Workload          string  `json:"workload"`
	Engine            string  `json:"engine"`
	Steps             int64   `json:"steps"`
	WallNs            int64   `json:"wall_ns"`
	InstrPerSec       float64 `json:"instr_per_sec"`
	NsPerInstr        float64 `json:"ns_per_instr"`
	AllocsPerOp       uint64  `json:"allocs_per_op"`
	Speedup           float64 `json:"speedup,omitempty"`
	CompiledOverFused float64 `json:"compiled_over_fused,omitempty"`
	TierUps           int     `json:"tier_ups,omitempty"`
	TierDeopts        int64   `json:"tier_deopts,omitempty"`
	TierSegExecs      int64   `json:"tier_seg_execs,omitempty"`
}

// vmPerfReps is the number of timed repetitions per engine; the fastest
// is reported (standard practice for wall-clock microbenchmarks).
// Repetitions are interleaved across engines (rep-major order) so
// machine-load drift hits all engines alike instead of biasing whichever
// ran last.
const vmPerfReps = 7

// vmPerfQuantum is the scheduler quantum used for the timed runs. The
// perf snapshot measures steady-state engine throughput, so the quantum
// is set well above the scheduling default: at the default (64) the
// measurement is dominated by per-rotation driver work that all engines
// share, not by dispatch quality. Parity suites exercise the small,
// adversarial quanta; elision counters are engine-invariant at any
// quantum (the differential tests assert bit-identical counters).
const vmPerfQuantum = 8192

var vmPerfEngines = []vm.Engine{vm.EngineCompiled, vm.EngineFused, vm.EngineSwitch}

// VMPerf times full runs of every workload's mode-A build per engine
// (including VM construction, so the fused engine's decode cost and the
// compiled tier's translation cost are charged against them). Its cells
// compile only: wall time is what it measures, so the interleaved timed
// repetitions stay a timing loop over the cell's build. All engines
// execute the identical instruction stream, so steps match and the
// wall-time ratios are pure dispatch-efficiency comparisons.
var VMPerf = &Experiment[VMPerfRow]{
	name:  "vmperf",
	usage: "VM execution-engine performance (compiled vs fused vs switch: instr/s, ns/instr, allocs/op, tier counters)",
	cells: func(s Settings) []Cell {
		return perWorkload(Cell{Limit: s.InlineLimit, Analysis: modeA})
	},
	project: func(recs []*Record) ([]VMPerfRow, error) {
		var rows []VMPerfRow
		for _, r := range recs {
			trio, err := timeEngines(r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, trio...)
		}
		return rows, nil
	},
	table: table[VMPerfRow]{
		title: "VM execution-engine performance (mode A, conditional barriers)",
		head: fmt.Sprintf("%-7s %-9s %12s %12s %12s %10s %8s %8s %14s",
			"bench", "engine", "steps", "Minstr/s", "ns/instr", "allocs/op", "speedup", "vs fused", "tier up/de/seg"),
		row: "%-7s %-9s %12d %12.2f %12.2f %10d %8s %8s %14s",
		vals: func(r VMPerfRow) []any {
			speedup, vsFused, tier := "", "", ""
			if r.Speedup > 0 {
				speedup = fmt.Sprintf("%.2fx", r.Speedup)
			}
			if r.CompiledOverFused > 0 {
				vsFused = fmt.Sprintf("%.2fx", r.CompiledOverFused)
			}
			if r.Engine == "compiled" {
				tier = fmt.Sprintf("%d/%d/%d", r.TierUps, r.TierDeopts, r.TierSegExecs)
			}
			return []any{r.Workload, r.Engine, r.Steps, r.InstrPerSec / 1e6, r.NsPerInstr,
				r.AllocsPerOp, speedup, vsFused, tier}
		},
		footer: func(rows []VMPerfRow) string {
			var b strings.Builder
			if g := VMPerfGeomeanSpeedup(rows); g > 0 {
				fmt.Fprintf(&b, "geomean fused speedup: %.2fx\n", g)
			}
			if g := VMPerfGeomeanCompiledOverFused(rows); g > 0 {
				fmt.Fprintf(&b, "geomean compiled over fused: %.2fx\n", g)
			}
			return b.String()
		},
	},
	store: func(d *Document, rows []VMPerfRow) {
		d.VMPerf = rows
		d.VMPerfGeomeanSpeedup = VMPerfGeomeanSpeedup(rows)
		d.VMPerfGeomeanCompiledOverFused = VMPerfGeomeanCompiledOverFused(rows)
	},
}

// timeEngines times one build on every engine, fastest of vmPerfReps
// interleaved repetitions, and derives the speedup columns.
func timeEngines(r *Record) ([]VMPerfRow, error) {
	trio := make([]VMPerfRow, len(vmPerfEngines))
	best := make([]time.Duration, len(vmPerfEngines))
	for rep := 0; rep < vmPerfReps; rep++ {
		for i, eng := range vmPerfEngines {
			cfg := vm.Config{Barrier: satb.ModeConditional, Engine: eng, Quantum: vmPerfQuantum}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, err := vm.New(r.Build.Program, cfg).Run()
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("vmperf %s/%v: %w", r.Workload.Name, eng, err)
			}
			if rep == 0 || d < best[i] {
				best[i] = d
				trio[i] = VMPerfRow{
					Workload:     r.Workload.Name,
					Engine:       eng.String(),
					Steps:        res.Steps,
					WallNs:       d.Nanoseconds(),
					AllocsPerOp:  m1.Mallocs - m0.Mallocs,
					TierUps:      res.TierUps,
					TierDeopts:   res.TierDeopts,
					TierSegExecs: res.TierSegExecs,
				}
			}
		}
	}
	swWall := trio[len(trio)-1].WallNs
	for i := range trio {
		t := &trio[i]
		if t.WallNs > 0 {
			t.InstrPerSec = float64(t.Steps) / (float64(t.WallNs) / 1e9)
			t.NsPerInstr = float64(t.WallNs) / float64(t.Steps)
			if t.Engine != "switch" {
				t.Speedup = float64(swWall) / float64(t.WallNs)
			}
		}
	}
	if fusedWall := trio[1].WallNs; fusedWall > 0 && trio[0].WallNs > 0 {
		trio[0].CompiledOverFused = float64(fusedWall) / float64(trio[0].WallNs)
	}
	return trio, nil
}

// VMPerfGeomeanSpeedup returns the geometric-mean fused-over-switch
// speedup across the rows (0 when no fused rows are present).
func VMPerfGeomeanSpeedup(rows []VMPerfRow) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		if r.Engine == "fused" && r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// VMPerfGeomeanCompiledOverFused returns the geometric-mean compiled-
// over-fused speedup across the rows (0 when no compiled rows are
// present).
func VMPerfGeomeanCompiledOverFused(rows []VMPerfRow) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		if r.CompiledOverFused > 0 {
			logSum += math.Log(r.CompiledOverFused)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
