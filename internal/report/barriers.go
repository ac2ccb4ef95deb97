package report

import (
	"fmt"

	"satbelim/internal/core"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// BarrierRow is one (workload, flavor) cell of the cross-flavor barrier
// matrix: how much of the analysis's elision the flavor can use, what
// the kept barriers cost end-to-end, and the insertion/deletion traffic
// it generated under its natural collector.
type BarrierRow struct {
	Workload string `json:"workload"`
	Flavor   string `json:"flavor"`
	GC       string `json:"gc"`
	// StaticKept/StaticDiscarded split the analysis's static verdicts by
	// the flavor's soundness predicate (discarded sites keep their full
	// barrier).
	StaticKept      int `json:"static_kept"`
	StaticDiscarded int `json:"static_discarded"`
	// Execs counts dynamic barrier-site executions; the Pct columns are
	// shares of Execs removed per elision kind (post-projection).
	Execs         uint64  `json:"execs"`
	ElimPct       float64 `json:"elim_pct"`
	PreNullPct    float64 `json:"pre_null_pct"`
	NullOrSamePct float64 `json:"null_or_same_pct"`
	RearrangePct  float64 `json:"rearrange_pct"`
	// Logged counts deletion-side (pre-value) log entries, Shaded
	// insertion-side (new-value) shade events, Cards dirtied cards.
	Logged uint64 `json:"logged"`
	Shaded uint64 `json:"shaded"`
	Cards  uint64 `json:"cards_dirtied,omitempty"`
	// BarrierCost is cost-model units spent in barriers; Relative is
	// throughput (steps per total cost) against the no-barrier baseline.
	BarrierCost uint64  `json:"barrier_cost"`
	TotalCost   uint64  `json:"total_cost"`
	Relative    float64 `json:"relative"`
}

// barrierFlavors pairs every flavor with its natural collector: the
// deletion-side and hybrid flavors uphold the SATB snapshot, the card
// flavor serves the incremental-update marker, and the no-barrier
// baseline (first, the Relative denominator) runs uncollected (any
// marker would be unsound without a barrier).
var barrierFlavors = []struct {
	mode   satb.BarrierMode
	gc     vm.GCKind
	gcName string
}{
	{satb.ModeNoBarrier, vm.GCNone, "none"},
	{satb.ModeConditional, vm.GCSATB, "satb"},
	{satb.ModeAlwaysLog, vm.GCSATB, "satb"},
	{satb.ModeYuasa, vm.GCSATB, "satb"},
	{satb.ModeDijkstra, vm.GCSATB, "satb"},
	{satb.ModeHybrid, vm.GCSATB, "satb"},
	{satb.ModeCardMarking, vm.GCIncremental, "inc"},
}

// Barriers measures the cross-flavor matrix (a Table-1 analogue): every
// workload × every barrier flavor, with one full analysis per workload
// (mode A + null-or-same + array rearrangement) executed under the
// flavor's natural collector. Verdict projection happens in the VM, so
// one analysis serves all flavors; the snapshot invariant is verified on
// every snapshot-sound flavor.
var Barriers = &Experiment[BarrierRow]{
	name:  "barriers",
	usage: "cross-flavor barrier matrix (yuasa/dijkstra/hybrid/... elimination and cost per workload)",
	cells: func(s Settings) []Cell {
		opts := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
		var variants []Cell
		for _, f := range barrierFlavors {
			variants = append(variants, Cell{Limit: s.InlineLimit, Analysis: opts, Run: &vm.Config{
				Barrier:            f.mode,
				GC:                 f.gc,
				TriggerEveryAllocs: 200,
				CheckInvariant:     true, // armed only on snapshot-sound flavors
			}})
		}
		return perWorkload(variants...)
	},
	project: func(recs []*Record) ([]BarrierRow, error) {
		rows := make([]BarrierRow, len(recs))
		for i, r := range recs {
			s, res, flavor := r.Summary, r.Result, barrierFlavors[i%len(barrierFlavors)]
			spec := flavor.mode.Spec()
			fv := core.FlavorSiteVerdicts(r.Build.Program, spec)
			elided := s.ElidedExecs + s.NullOrSameExecs + s.RearrangeExecs
			rows[i] = BarrierRow{
				Workload:        r.Workload.Name,
				Flavor:          spec.Name,
				GC:              flavor.gcName,
				StaticKept:      fv.Kept,
				StaticDiscarded: fv.Discarded,
				Execs:           s.TotalExecs,
				ElimPct:         pct(elided, s.TotalExecs),
				PreNullPct:      pct(s.ElidedExecs, s.TotalExecs),
				NullOrSamePct:   pct(s.NullOrSameExecs, s.TotalExecs),
				RearrangePct:    pct(s.RearrangeExecs, s.TotalExecs),
				Logged:          res.Counters.Logged,
				Shaded:          res.Counters.Shaded,
				Cards:           res.Counters.CardsDirtied,
				BarrierCost:     res.Counters.Cost,
				TotalCost:       res.TotalCost(),
				Relative:        throughput(res) / throughput(recs[i-i%len(barrierFlavors)].Result),
			}
		}
		return rows, nil
	},
	table: table[BarrierRow]{
		title: "Barrier-flavor matrix: elimination and end-to-end cost per flavor",
		head: fmt.Sprintf("%-7s %-12s %-5s %10s %7s %7s %7s %7s %9s %9s %8s %11s %9s",
			"bench", "flavor", "gc", "execs", "% elim", "% pnull", "% nos", "% rearr",
			"logged", "shaded", "cards", "cost", "relative"),
		row: "%-7s %-12s %-5s %10d %7.1f %7.1f %7.1f %7.1f %9d %9d %8d %11d %9.3f",
		vals: func(r BarrierRow) []any {
			return []any{r.Workload, r.Flavor, r.GC, r.Execs, r.ElimPct, r.PreNullPct, r.NullOrSamePct,
				r.RearrangePct, r.Logged, r.Shaded, r.Cards, r.BarrierCost, r.Relative}
		},
		group: true,
	},
	store: func(d *Document, rows []BarrierRow) { d.Barriers = rows },
}
