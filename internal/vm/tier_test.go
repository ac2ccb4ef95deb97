package vm_test

// Targeted tests for the compiled hot-method tier: counter-driven tier-up
// hysteresis (a method heats to the threshold, tiers up exactly once, and
// stays tiered), forced deoptimization mid-loop re-entering fused
// dispatch, and the tier knobs' defaulting behaviour. The differential
// harness in engine_diff_test.go covers whole-workload bit-parity; these
// tests pin the tier-up machinery itself on a program small enough to
// reason about by hand.

import (
	"reflect"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// tierTestSource has one hot helper with a store-heavy loop (called
// repeatedly so it heats through both call counts and back-edges) and a
// cold helper called exactly once.
const tierTestSource = `
class Node {
    int val;
    Node next;
    Node(int v) {
        val = v;
    }
}

class Hot {
    static int sum(int n) {
        Node head = null;
        int s = 0;
        for (int i = 0; i < n; i = i + 1) {
            Node x = new Node(i);
            x.next = head;     // pre-null chain store
            head = x;
            s = s + x.val;
        }
        while (head != null) {
            s = s + head.val;
            head = head.next;
        }
        return s;
    }

    static int once(int x) {
        return x * 3 + 1;
    }

    static void main() {
        int total = Hot.once(7);
        for (int r = 0; r < 24; r = r + 1) {
            total = total + Hot.sum(40);
        }
        print(total);
    }
}
`

func compileTierTest(t *testing.T) *pipeline.Build {
	t.Helper()
	bd, err := pipeline.Compile("tiertest", tierTestSource, pipeline.Options{
		InlineLimit: 0, // keep sum/once as real methods so call counts drive hotness
		Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return bd
}

func runTier(t *testing.T, bd *pipeline.Build, cfg vm.Config) *vm.Result {
	t.Helper()
	res, err := bd.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameRun demands identical observable results (the tier counters
// and engine label are the only fields allowed to differ).
func assertSameRun(t *testing.T, got, want *vm.Result, gn, wn string) {
	t.Helper()
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("Output: %s %v, %s %v", gn, got.Output, wn, want.Output)
	}
	if got.Steps != want.Steps {
		t.Errorf("Steps: %s %d, %s %d", gn, got.Steps, wn, want.Steps)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("Counters differ between %s and %s", gn, wn)
	}
}

// TestTierUpHysteresis pins the counter-driven tier-up policy: below the
// threshold nothing compiles; once crossed, the hot method compiles
// exactly once and stays compiled (TierUps counts methods, not
// re-translations), and the run is bit-identical either way.
func TestTierUpHysteresis(t *testing.T) {
	bd := compileTierTest(t)
	base := runTier(t, bd, vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineFused})

	// Threshold far above anything the program can reach: the tier is
	// armed but no method ever heats up; the run stays on fused dispatch.
	cold := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 1 << 40,
	})
	if cold.TierUps != 0 || cold.TierSegExecs != 0 {
		t.Errorf("unreachable threshold still tiered: ups=%d segExecs=%d", cold.TierUps, cold.TierSegExecs)
	}
	assertSameRun(t, cold, base, "cold-compiled", "fused")

	// Low threshold: the hot loop and its callee compile; the cold
	// helper (one call, no loop) must not. Repeating the run on a fresh
	// VM must tier up the same methods at the same points.
	hot := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if hot.TierUps == 0 {
		t.Fatal("threshold 8 never tiered up")
	}
	if hot.TierSegExecs == 0 {
		t.Error("tiered run executed no compiled segments")
	}
	if hot.TierUps >= 4 {
		t.Errorf("TierUps = %d, want only the hot methods (sum, main), not every method", hot.TierUps)
	}
	assertSameRun(t, hot, base, "hot-compiled", "fused")

	again := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if again.TierUps != hot.TierUps || again.TierSegExecs != hot.TierSegExecs || again.TierDeopts != hot.TierDeopts {
		t.Errorf("tiering not deterministic: run1 {ups=%d seg=%d deopt=%d} run2 {ups=%d seg=%d deopt=%d}",
			hot.TierUps, hot.TierSegExecs, hot.TierDeopts,
			again.TierUps, again.TierSegExecs, again.TierDeopts)
	}
}

// TestTierForcedDeoptMidLoop is the deopt contract on a method-scale
// program: the hot method tiers up, forced deopt fires mid-loop (well
// after tier-up, well before the program ends), execution re-enters fused
// dispatch for the rest of the run, and Output/Steps/Counters are
// identical to a never-tiered run.
func TestTierForcedDeoptMidLoop(t *testing.T) {
	bd := compileTierTest(t)
	base := runTier(t, bd, vm.Config{Barrier: satb.ModeAlwaysLog, Engine: vm.EngineFused})

	full := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled, TierThreshold: 8,
	})
	if full.TierSegExecs < 20 {
		t.Fatalf("need a long compiled run to deopt mid-way, got %d segment execs", full.TierSegExecs)
	}
	after := full.TierSegExecs / 2
	deopt := runTier(t, bd, vm.Config{
		Barrier: satb.ModeAlwaysLog, Engine: vm.EngineCompiled,
		TierThreshold: 8, TierForceDeoptAfter: after,
	})
	if deopt.TierUps == 0 {
		t.Fatal("deopt run never tiered up")
	}
	if deopt.TierSegExecs != after {
		t.Errorf("TierSegExecs = %d, want exactly %d (forced deopt must stop compiled execution)", deopt.TierSegExecs, after)
	}
	if deopt.TierDeopts == 0 {
		t.Error("forced deopt not recorded in TierDeopts")
	}
	assertSameRun(t, deopt, base, "deopted", "fused")
	assertSameRun(t, deopt, full, "deopted", "fully-compiled")
}

// TestTierConfigSurface pins the knob defaults: threshold 0 means
// DefaultTierThreshold, the compiled engine parses, and Result.Engine
// names it.
func TestTierConfigSurface(t *testing.T) {
	if vm.DefaultTierThreshold != 64 {
		t.Errorf("DefaultTierThreshold = %d, want 64", vm.DefaultTierThreshold)
	}
	eng, err := vm.ParseEngine("compiled")
	if err != nil || eng != vm.EngineCompiled {
		t.Fatalf("ParseEngine(compiled) = %v, %v", eng, err)
	}
	if got := vm.EngineCompiled.String(); got != "compiled" {
		t.Errorf("EngineCompiled.String() = %q", got)
	}
	if _, err := vm.ParseEngine("jit"); err == nil {
		t.Error("ParseEngine(jit) should fail")
	}

	bd := compileTierTest(t)
	res := runTier(t, bd, vm.Config{Barrier: satb.ModeNoBarrier, Engine: vm.EngineCompiled})
	if res.Engine != "compiled" {
		t.Errorf("Result.Engine = %q, want compiled", res.Engine)
	}
	// The program's hot loop crosses the default threshold (24 calls +
	// ~40 back-edges per call), so even the default must tier up.
	if res.TierUps == 0 {
		t.Error("default threshold never tiered up on the hot loop")
	}
}
