package pipeline

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// compileAndExec does a fresh (uncached) compile + run of a workload under
// the given runtime config and returns the build and result.
func compileAndExec(t *testing.T, name string, rt vm.Config) (*Build, *vm.Result) {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(w.Name, w.Source, Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		NoCache:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.New(b.Program, rt).Run()
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

// TestTracingIsObservationOnly proves the observability layer never
// perturbs semantics: a run with the collector enabled must be
// bit-identical — output, step counts, every barrier counter, every
// per-site statistic, GC totals — to the same run with tracing disabled.
func TestTracingIsObservationOnly(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("collector unexpectedly enabled at test start")
	}
	configs := []struct {
		name string
		rt   vm.Config
	}{
		{"plain", vm.Config{Barrier: satb.ModeConditional}},
		{"gc-oracle", vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 128,
			CheckInvariant:     true,
			CheckElisions:      true,
		}},
		{"switch-engine", vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineSwitch}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			bOff, off := compileAndExec(t, "jbb", cfg.rt)

			c := obs.Enable()
			bOn, on := compileAndExec(t, "jbb", cfg.rt)
			obs.Disable()

			if !reflect.DeepEqual(off.Output, on.Output) {
				t.Errorf("output diverged: %v vs %v", off.Output, on.Output)
			}
			if off.Steps != on.Steps {
				t.Errorf("steps diverged: %d vs %d", off.Steps, on.Steps)
			}
			if !reflect.DeepEqual(off.Counters, on.Counters) {
				t.Errorf("barrier counters diverged:\noff: %+v\non:  %+v",
					off.Counters.Summarize(), on.Counters.Summarize())
			}
			if off.Cycles != on.Cycles || off.FinalPauseWork != on.FinalPauseWork ||
				off.Allocated != on.Allocated || off.Swept != on.Swept ||
				off.ElisionChecks != on.ElisionChecks {
				t.Errorf("GC/oracle stats diverged: off=%+v on=%+v", off, on)
			}
			if off.TotalCost() != on.TotalCost() {
				t.Errorf("total cost diverged: %d vs %d", off.TotalCost(), on.TotalCost())
			}
			// The analysis result itself must match too.
			offT := totals(bOff)
			onT := totals(bOn)
			if offT != onT {
				t.Errorf("analysis totals diverged: %v vs %v", offT, onT)
			}
			// And the enabled run must actually have recorded something —
			// otherwise this test is vacuous.
			if len(c.Events()) == 0 {
				t.Error("enabled collector recorded no events")
			}
			if len(c.Counters()) == 0 {
				t.Error("enabled collector recorded no counters")
			}
		})
	}
}

type reportTotals struct {
	fieldSites, arraySites, fieldElided, arrayElided, nullOrSame int
}

func totals(b *Build) reportTotals {
	var t reportTotals
	if b.Report != nil {
		t.fieldSites, t.arraySites, t.fieldElided, t.arrayElided, t.nullOrSame = b.Report.Totals()
	}
	return t
}

// TestInjectableCacheIsolation verifies that a caller-supplied cache is
// fully isolated from the process-default one and from other instances.
func TestInjectableCacheIsolation(t *testing.T) {
	priv := NewCache(8)
	other := NewCache(8)
	before := DefaultCache.Stats()

	opts := Options{InlineLimit: 50, Cache: priv}
	b1, err := Compile("cacheinject", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b1.CacheHit {
		t.Error("first compile in a fresh private cache must miss")
	}
	b2, err := Compile("cacheinject", cacheTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.CacheHit {
		t.Error("recompile against the private cache must hit")
	}
	if s := priv.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("private cache stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	if s := other.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("unrelated cache instance touched: %+v", s)
	}
	after := DefaultCache.Stats()
	if after != before {
		t.Errorf("default cache touched by private-cache compiles: before=%+v after=%+v", before, after)
	}

	// The same compile against a different instance misses independently.
	b3, err := Compile("cacheinject", cacheTestSrc, Options{InlineLimit: 50, Cache: other})
	if err != nil {
		t.Fatal(err)
	}
	if b3.CacheHit {
		t.Error("fresh cache instance must not share entries")
	}
}
