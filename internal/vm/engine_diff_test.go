package vm_test

// Differential harness for the three execution engines: every workload
// runs under the pre-decoded fused engine, the reference switch
// interpreter, and the compiled hot-method tier across the barrier modes
// and analysis configurations of the paper's evaluation, with and without
// the runtime elision oracle, and the Results must be bit-identical —
// output, step counts, GC cycles, allocation/sweep totals, oracle check
// counts, and the full per-site barrier counters. The compiled tier runs
// with an aggressive threshold so every workload actually tiers up, with
// the oracle armed too, and a forced-deopt sweep proves that abandoning
// compiled code mid-run changes nothing observable.

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// diffConfig is one compile+run configuration of the sweep.
type diffConfig struct {
	name     string
	analysis core.Options
	run      vm.Config
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{
			name: "nobarrier",
			run:  vm.Config{Barrier: satb.ModeNoBarrier},
		},
		{
			name: "alwayslog",
			run:  vm.Config{Barrier: satb.ModeAlwaysLog},
		},
		{
			name:     "alwayslog-elim",
			analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
			run:      vm.Config{Barrier: satb.ModeAlwaysLog},
		},
		{
			name:     "conditional-gc",
			analysis: core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
			run: vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 64,
				CheckInvariant:     true,
			},
		},
	}
}

// diffTierThreshold tiers every method up almost immediately so the
// compiled tier, not its fused fallback, is what the sweep exercises.
const diffTierThreshold = 2

// runEngine executes one build on one engine.
func runEngine(t *testing.T, bd *pipeline.Build, cfg vm.Config, eng vm.Engine) *vm.Result {
	t.Helper()
	cfg.Engine = eng
	if eng == vm.EngineCompiled && cfg.TierThreshold == 0 {
		cfg.TierThreshold = diffTierThreshold
	}
	res, err := bd.Run(cfg)
	if err != nil {
		t.Fatalf("engine %v: %v", eng, err)
	}
	return res
}

// assertIdentical compares every semantic field of two Results (Engine
// and the tier counters are the intentionally differing, informational
// fields).
func assertIdentical(t *testing.T, a, b *vm.Result, an, bn string) {
	t.Helper()
	if a.Engine != an || b.Engine != bn {
		t.Fatalf("engine labels: got %q/%q, want %q/%q", a.Engine, b.Engine, an, bn)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("Output differs: %s %d values, %s %d values", an, len(a.Output), bn, len(b.Output))
	}
	if a.Steps != b.Steps {
		t.Errorf("Steps: %s %d, %s %d", an, a.Steps, bn, b.Steps)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles: %s %d, %s %d", an, a.Cycles, bn, b.Cycles)
	}
	if a.FinalPauseWork != b.FinalPauseWork {
		t.Errorf("FinalPauseWork: %s %d, %s %d", an, a.FinalPauseWork, bn, b.FinalPauseWork)
	}
	if a.Allocated != b.Allocated {
		t.Errorf("Allocated: %s %d, %s %d", an, a.Allocated, bn, b.Allocated)
	}
	if a.Swept != b.Swept {
		t.Errorf("Swept: %s %d, %s %d", an, a.Swept, bn, b.Swept)
	}
	if a.ElisionChecks != b.ElisionChecks {
		t.Errorf("ElisionChecks: %s %d, %s %d", an, a.ElisionChecks, bn, b.ElisionChecks)
	}
	if a.TotalCost() != b.TotalCost() {
		t.Errorf("TotalCost: %s %d, %s %d", an, a.TotalCost(), bn, b.TotalCost())
	}
	// The counters must match to the last per-site statistic, including
	// which sites exist at all (site stats are created lazily on first
	// execution in every engine).
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		as, bs := a.Counters.Summarize(), b.Counters.Summarize()
		t.Errorf("Counters differ: %s {cost=%d logged=%d execs=%d sites=%d} %s {cost=%d logged=%d execs=%d sites=%d}",
			an, a.Counters.Cost, a.Counters.Logged, as.TotalExecs, len(a.Counters.Sites()),
			bn, b.Counters.Cost, b.Counters.Logged, bs.TotalExecs, len(b.Counters.Sites()))
	}
}

// TestEngineDifferentialWorkloads sweeps all six Table 1 workloads across
// barrier modes × analysis configurations × oracle on/off, on all three
// engines. The compiled tier must tier up and be bit-identical to both
// reference engines, oracle check counts included: under the oracle the
// elided stores of compiled code are validated exactly like fused ones.
func TestEngineDifferentialWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for _, dc := range diffConfigs() {
			bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
				InlineLimit: 100,
				Analysis:    dc.analysis,
			})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", w.Name, dc.name, err)
			}
			for _, oracle := range []bool{false, true} {
				name := w.Name + "/" + dc.name
				if oracle {
					name += "/oracle"
				}
				t.Run(name, func(t *testing.T) {
					cfg := dc.run
					cfg.CheckElisions = oracle
					fused := runEngine(t, bd, cfg, vm.EngineFused)
					sw := runEngine(t, bd, cfg, vm.EngineSwitch)
					comp := runEngine(t, bd, cfg, vm.EngineCompiled)
					assertIdentical(t, fused, sw, "fused", "switch")
					assertIdentical(t, comp, fused, "compiled", "fused")
					if oracle && fused.ElisionChecks == 0 && dc.analysis.Mode != core.ModeNone {
						t.Error("oracle ran but validated no elided stores")
					}
					if comp.TierUps == 0 {
						t.Errorf("compiled run tiered up no methods at threshold %d", diffTierThreshold)
					}
					if comp.TierSegExecs == 0 {
						t.Error("compiled run executed no compiled segments")
					}
				})
			}
		}
	}
}

// TestEngineDifferentialFlavorMatrix sweeps the new barrier flavors
// (yuasa, dijkstra, hybrid) across every safe collector pairing and
// oracle on/off, on all three engines, with the full analysis enabled.
// Every flavor must be bit-identical across engines, so a projection of
// analysis verdicts through a flavor's soundness predicate that any one
// engine applied differently cannot hide.
func TestEngineDifferentialFlavorMatrix(t *testing.T) {
	analysis := core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}
	pairings := []struct {
		mode satb.BarrierMode
		gc   vm.GCKind
	}{
		{satb.ModeYuasa, vm.GCNone},
		{satb.ModeYuasa, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCNone},
		{satb.ModeDijkstra, vm.GCSATB},
		{satb.ModeDijkstra, vm.GCIncremental},
		{satb.ModeHybrid, vm.GCNone},
		{satb.ModeHybrid, vm.GCSATB},
		{satb.ModeHybrid, vm.GCIncremental},
	}
	gcName := map[vm.GCKind]string{vm.GCNone: "none", vm.GCSATB: "satb", vm.GCIncremental: "inc"}
	for _, w := range workloads.All() {
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100,
			Analysis:    analysis,
		})
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, pr := range pairings {
			for _, oracle := range []bool{false, true} {
				name := w.Name + "/" + pr.mode.String() + "/" + gcName[pr.gc]
				if oracle {
					name += "/oracle"
				}
				t.Run(name, func(t *testing.T) {
					cfg := vm.Config{
						Barrier:            pr.mode,
						GC:                 pr.gc,
						TriggerEveryAllocs: 64,
						// Armed only on snapshot-sound flavors (yuasa,
						// hybrid); a no-op with GC off.
						CheckInvariant: true,
						CheckElisions:  oracle,
					}
					fused := runEngine(t, bd, cfg, vm.EngineFused)
					sw := runEngine(t, bd, cfg, vm.EngineSwitch)
					comp := runEngine(t, bd, cfg, vm.EngineCompiled)
					assertIdentical(t, fused, sw, "fused", "switch")
					assertIdentical(t, comp, fused, "compiled", "fused")
					if oracle {
						// Dijkstra projects every deletion-side verdict
						// away, so the oracle has nothing to validate;
						// the deletion-capable flavors must validate the
						// kept subset.
						if pr.mode == satb.ModeDijkstra && fused.ElisionChecks != 0 {
							t.Errorf("dijkstra validated %d elisions, want 0 (all verdicts projected)", fused.ElisionChecks)
						}
						if pr.mode != satb.ModeDijkstra && fused.ElisionChecks == 0 {
							t.Error("oracle ran but validated no elided stores")
						}
					}
					s := fused.Counters.Summarize()
					if len(s.UnsoundSites) > 0 {
						t.Errorf("unsound sites under %s: %v", pr.mode, s.UnsoundSites)
					}
					if pr.mode == satb.ModeDijkstra && s.ElidedExecs+s.NullOrSameExecs+s.RearrangeExecs != 0 {
						t.Errorf("dijkstra executed elided sites (prenull=%d nos=%d rearr=%d), projection leaked",
							s.ElidedExecs, s.NullOrSameExecs, s.RearrangeExecs)
					}
				})
			}
		}
	}
}

// TestEngineDifferentialQuantumBoundaries stresses boundary gating at
// scheduler quantum ends: tiny odd quanta force fused superinstructions
// and whole compiled segments to straddle quantum ends and fall back to
// the per-instruction path mid-sequence, which must not perturb any
// observable result. Quantum 1 is the extreme: no compiled segment longer
// than one instruction ever fits, so the compiled engine runs almost
// entirely on its deopt path.
func TestEngineDifferentialQuantumBoundaries(t *testing.T) {
	w, err := workloads.Get("jbb")
	if err != nil {
		t.Fatal(err)
	}
	bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []int{1, 2, 3, 5, 7, 13, 64} {
		cfg := vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 32,
			Quantum:            quantum,
		}
		fused := runEngine(t, bd, cfg, vm.EngineFused)
		sw := runEngine(t, bd, cfg, vm.EngineSwitch)
		comp := runEngine(t, bd, cfg, vm.EngineCompiled)
		t.Run("quantum", func(t *testing.T) {
			assertIdentical(t, fused, sw, "fused", "switch")
			assertIdentical(t, comp, fused, "compiled", "fused")
		})
	}
}

// TestEngineDifferentialStepBudget verifies that budget exhaustion
// surfaces at the identical instruction on all three engines (a fused
// form or compiled segment must never over- or under-run MaxSteps).
func TestEngineDifferentialStepBudget(t *testing.T) {
	w, err := workloads.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{InlineLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 7, 100, 1001, 4999} {
		cfg := vm.Config{Barrier: satb.ModeAlwaysLog, MaxSteps: budget}
		cfg.Engine = vm.EngineFused
		_, ferr := bd.Run(cfg)
		cfg.Engine = vm.EngineSwitch
		_, serr := bd.Run(cfg)
		cfg.Engine = vm.EngineCompiled
		cfg.TierThreshold = diffTierThreshold
		_, cerr := bd.Run(cfg)
		if ferr == nil || serr == nil || cerr == nil {
			t.Fatalf("budget %d: expected exhaustion on every engine (fused=%v switch=%v compiled=%v)",
				budget, ferr, serr, cerr)
		}
		if ferr.Error() != serr.Error() {
			t.Errorf("budget %d: fused error %q, switch error %q", budget, ferr, serr)
		}
		if cerr.Error() != ferr.Error() {
			t.Errorf("budget %d: compiled error %q, fused error %q", budget, cerr, ferr)
		}
	}
}

// TestEngineDifferentialForcedDeopt runs the compiled tier with forced
// deoptimization firing at varying points mid-execution — after the
// first compiled segment, mid-loop, deep into the run — and demands
// bit-identical results versus the fused engine. This is the deopt
// contract: abandoning compiled code at ANY segment boundary re-enters
// fused dispatch with no observable difference.
func TestEngineDifferentialForcedDeopt(t *testing.T) {
	for _, wname := range []string{"db", "mtrt"} {
		w, err := workloads.Get(wname)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
			InlineLimit: 100,
			Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 64,
		}
		fused := runEngine(t, bd, cfg, vm.EngineFused)
		for _, after := range []int64{1, 5, 50, 500} {
			ccfg := cfg
			ccfg.TierForceDeoptAfter = after
			comp := runEngine(t, bd, ccfg, vm.EngineCompiled)
			t.Run(wname, func(t *testing.T) {
				assertIdentical(t, comp, fused, "compiled", "fused")
				if comp.TierSegExecs != after {
					t.Errorf("deopt after %d: TierSegExecs = %d, want exactly %d", after, comp.TierSegExecs, after)
				}
				if comp.TierDeopts == 0 {
					t.Errorf("deopt after %d: TierDeopts = 0, want forced deopt recorded", after)
				}
			})
		}
	}
}
