package progen

import (
	"reflect"
	"strings"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

const seeds = 60

// TestGeneratedProgramsCompileVerifyAndRun is the front-to-back smoke
// property: every generated program parses, checks, verifies, and runs to
// completion with bounded work.
func TestGeneratedProgramsCompileVerifyAndRun(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, DefaultConfig())
		b, err := pipeline.Compile("gen", src, pipeline.Options{InlineLimit: 100})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		res, err := vm.New(b.Program, vm.Config{MaxSteps: 20_000_000}).Run()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if len(res.Output) == 0 {
			t.Fatalf("seed %d: no output", seed)
		}
	}
}

// TestGeneratedProgramsInlineInvariance: inlining must never change
// program semantics.
func TestGeneratedProgramsInlineInvariance(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, DefaultConfig())
		var base []int64
		for _, limit := range []int{0, 50, 200} {
			b, err := pipeline.Compile("gen", src, pipeline.Options{InlineLimit: limit})
			if err != nil {
				t.Fatalf("seed %d limit %d: %v", seed, limit, err)
			}
			res, err := vm.New(b.Program, vm.Config{MaxSteps: 20_000_000}).Run()
			if err != nil {
				t.Fatalf("seed %d limit %d: %v", seed, limit, err)
			}
			if base == nil {
				base = res.Output
			} else if !reflect.DeepEqual(base, res.Output) {
				t.Fatalf("seed %d: limit %d changed output %v -> %v\n%s",
					seed, limit, base, res.Output, src)
			}
		}
	}
}

// TestGeneratedProgramsElisionSoundness: the analysis may never elide a
// barrier that dynamically observes a non-null pre-value (or, for
// null-or-same sites, a different value), on any generated program.
func TestGeneratedProgramsElisionSoundness(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, DefaultConfig())
		b, err := pipeline.Compile("gen", src, pipeline.Options{
			InlineLimit: 100,
			Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := vm.New(b.Program, vm.Config{Barrier: satb.ModeConditional, MaxSteps: 20_000_000}).Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
			t.Fatalf("seed %d: unsound elisions %v\n%s", seed, s.UnsoundSites, src)
		}
	}
}

// TestGeneratedProgramsSATBInvariant runs a sample of generated programs
// under concurrent SATB marking with elided barriers and verifies the
// snapshot invariant every cycle.
func TestGeneratedProgramsSATBInvariant(t *testing.T) {
	for seed := int64(0); seed < seeds/2; seed++ {
		src := Generate(seed, DefaultConfig())
		b, err := pipeline.Compile("gen", src, pipeline.Options{
			InlineLimit: 100,
			Analysis:    core.Options{Mode: core.ModeFieldArray},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: SATB invariant violated: %v\n%s", seed, r, src)
				}
			}()
			if _, err := vm.New(b.Program, vm.Config{
				Barrier:            satb.ModeConditional,
				GC:                 vm.GCSATB,
				TriggerEveryAllocs: 20,
				MarkStepBudget:     3,
				CheckInvariant:     true,
				MaxSteps:           20_000_000,
			}).Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}()
	}
}

// TestGeneratedProgramsBarrierModeInvariance: barrier mode and collector
// choice never change results.
func TestGeneratedProgramsBarrierModeInvariance(t *testing.T) {
	for seed := int64(0); seed < seeds/2; seed++ {
		src := Generate(seed, DefaultConfig())
		b, err := pipeline.Compile("gen", src, pipeline.Options{InlineLimit: 100})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var base []int64
		for _, cfg := range []vm.Config{
			{Barrier: satb.ModeNoBarrier},
			{Barrier: satb.ModeConditional},
			{Barrier: satb.ModeAlwaysLog},
			{Barrier: satb.ModeCardMarking, GC: vm.GCIncremental, TriggerEveryAllocs: 30},
			{Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 30},
		} {
			cfg.MaxSteps = 20_000_000
			res, err := vm.New(b.Program, cfg).Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if base == nil {
				base = res.Output
			} else if !reflect.DeepEqual(base, res.Output) {
				t.Fatalf("seed %d: output changed under %+v: %v vs %v", seed, cfg, base, res.Output)
			}
		}
	}
}

// TestCampaignConfigIdiomsAppearAndRunSound checks that the campaign
// knobs actually emit their idioms across a seed range and that every
// campaign-config program still compiles, runs, and survives the runtime
// elision oracle under concurrent marking.
func TestCampaignConfigIdiomsAppearAndRunSound(t *testing.T) {
	idioms := map[string]int{"prev": 0, "sa": 0, "al": 0, ".link = new": 0, "mr": 0, "dc": 0}
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, CampaignConfig())
		for marker := range idioms {
			if containsIdent(src, marker) {
				idioms[marker]++
			}
		}
		b, err := pipeline.Compile("gen", src, pipeline.Options{
			InlineLimit: 100,
			Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
		})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		res, err := vm.New(b.Program, vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 64,
			CheckInvariant:     true,
			CheckElisions:      true,
			MaxSteps:           20_000_000,
		}).Run()
		if err != nil {
			t.Fatalf("seed %d: oracle run: %v\n%s", seed, err, src)
		}
		if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
			t.Fatalf("seed %d: unsound elisions %v\n%s", seed, s.UnsoundSites, src)
		}
	}
	for marker, n := range idioms {
		if n == 0 {
			t.Errorf("idiom %q never appeared in %d campaign seeds", marker, seeds)
		}
	}
}

// containsIdent reports whether src mentions an identifier with the given
// prefix followed by a digit (progen's fresh-name shape), or the literal
// marker when it is not an identifier prefix.
func containsIdent(src, marker string) bool {
	if marker == ".link = new" {
		return strings.Contains(src, marker)
	}
	for d := '1'; d <= '9'; d++ {
		if strings.Contains(src, " "+marker+string(d)) {
			return true
		}
	}
	return false
}

// TestKnobsOffMatchesHistoricalStream: with every campaign knob false the
// generator must consume the random stream exactly as it always has, so
// historical seeds reproduce. CampaignConfig programs must differ (the
// knobs really change the draw space).
func TestKnobsOffMatchesHistoricalStream(t *testing.T) {
	plain := Config{Classes: 3, Methods: 4, MaxStmts: 6, MaxDepth: 3, MaxExprSize: 6}
	for seed := int64(100); seed < 110; seed++ {
		if Generate(seed, plain) != Generate(seed, DefaultConfig()) {
			t.Fatalf("seed %d: zero-knob Config differs from DefaultConfig", seed)
		}
	}
	same := 0
	for seed := int64(100); seed < 110; seed++ {
		if Generate(seed, DefaultConfig()) == Generate(seed, CampaignConfig()) {
			same++
		}
	}
	if same == 10 {
		t.Error("campaign knobs never changed any generated program")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, DefaultConfig())
	b := Generate(42, DefaultConfig())
	if a != b {
		t.Error("generation must be deterministic per seed")
	}
	c := Generate(43, DefaultConfig())
	if a == c {
		t.Error("different seeds should differ")
	}
}

// TestGeneratedProgramsInterproceduralSoundness: summaries must never
// produce an elision that a dynamic run refutes, at any inline level.
func TestGeneratedProgramsInterproceduralSoundness(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		src := Generate(seed, DefaultConfig())
		for _, limit := range []int{0, 100} {
			b, err := pipeline.Compile("gen", src, pipeline.Options{
				InlineLimit: limit,
				Analysis:    core.Options{Mode: core.ModeFieldArray, Interprocedural: true},
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := vm.New(b.Program, vm.Config{Barrier: satb.ModeConditional, MaxSteps: 20_000_000}).Run()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if s := res.Counters.Summarize(); len(s.UnsoundSites) != 0 {
				t.Fatalf("seed %d limit %d: unsound %v\n%s", seed, limit, s.UnsoundSites, src)
			}
		}
	}
}
