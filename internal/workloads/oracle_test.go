package workloads_test

import (
	"fmt"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// TestOracleAllWorkloads is the soundness sweep the paper's elision claim
// rests on: every workload, under every analysis configuration and every
// inline limit of §4.4, runs to completion with the runtime elision
// oracle enabled and zero violations — each elided store dynamically
// overwrote null (or the same reference) on a thread-local target. The
// runs use the compiled engine, so compiled elided stores are checked too.
func TestOracleAllWorkloads(t *testing.T) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"F", core.Options{Mode: core.ModeField}},
		{"A", core.Options{Mode: core.ModeFieldArray}},
		{"A+nos", core.Options{Mode: core.ModeFieldArray, NullOrSame: true}},
		{"A+nos+rearr+ip", core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true, Interprocedural: true}},
	}
	limits := []int{0, 25, 50, 100, 200}
	if testing.Short() {
		configs = configs[1:3]
		limits = []int{0, 100}
	}
	for _, w := range workloads.All() {
		for _, cfg := range configs {
			for _, limit := range limits {
				t.Run(fmt.Sprintf("%s/%s/inline%d", w.Name, cfg.name, limit), func(t *testing.T) {
					t.Parallel()
					b, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: limit, Analysis: cfg.opts})
					if err != nil {
						t.Fatal(err)
					}
					if d := b.Report.Degraded(); len(d) > 0 {
						t.Errorf("methods degraded under default budgets: %v", d)
					}
					res, err := vm.New(b.Program, vm.Config{
						Barrier:            satb.ModeConditional,
						GC:                 vm.GCSATB,
						TriggerEveryAllocs: 256,
						CheckInvariant:     true,
						CheckElisions:      true,
						Engine:             vm.EngineCompiled,
					}).Run()
					if err != nil {
						t.Fatalf("oracle violation: %v", err)
					}
					if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
						t.Errorf("unsound sites: %v", s.UnsoundSites)
					}
					if limit >= 100 && cfg.opts.Mode != core.ModeField && res.ElisionChecks == 0 {
						t.Error("oracle validated no elided stores — elision not exercised")
					}
				})
			}
		}
	}
}
