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

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
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
	res, err := vm.New(bd.Program, cfg).Run()
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

// buildPopOfStackOperand hand-builds a verified program whose main runs
// a 10-iteration loop with the body
//
//	const 5; <combine>; pop; print
//
// where combine leaves one value above the 5 that is computed from a
// call's return value, so it starts from the real operand stack: the
// pop must discard that value, and every iteration prints 5.
func buildPopOfStackOperand(t *testing.T, combine func(b *bytecode.Builder)) *bytecode.Program {
	t.Helper()
	prog := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	g := bytecode.NewBuilder("T", "g", true)
	g.SetReturn(bytecode.Int)
	g.Const(9)
	g.ReturnValue()
	h := bytecode.NewBuilder("T", "h", true)
	h.SetReturn(bytecode.ClassType("T"))
	h.Null()
	h.ReturnValue()
	b := bytecode.NewBuilder("T", "main", true)
	i := b.DeclareSlot(bytecode.Int)
	b.Const(10)
	b.Store(i)
	b.Label("loop")
	b.Const(5)
	combine(b)
	b.Op(bytecode.OpPop)
	b.Op(bytecode.OpPrint)
	b.Load(i)
	b.Const(1)
	b.Op(bytecode.OpSub)
	b.Store(i)
	b.Load(i)
	b.Const(0)
	b.Op(bytecode.OpCmpGT)
	b.IfTrue("loop")
	b.Return()
	cls.Methods = append(cls.Methods, g.Build(), h.Build(), b.Build())
	prog.AddClass(cls)
	prog.Main = bytecode.MethodRef{Class: "T", Name: "main"}
	if err := verifier.VerifyProgram(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPopOfStackOperand: a pop whose operand was computed from the real
// operand stack must pop it on every engine. The compiled tier once
// dropped such a pop at translation time, leaving the value for the
// following print.
func TestPopOfStackOperand(t *testing.T) {
	g := bytecode.MethodRef{Class: "T", Name: "g"}
	h := bytecode.MethodRef{Class: "T", Name: "h"}
	cases := []struct {
		name    string
		combine func(b *bytecode.Builder)
	}{
		{"neg of a return value", func(b *bytecode.Builder) {
			b.Invoke(g)
			b.Op(bytecode.OpNeg)
		}},
		{"refeq of return values", func(b *bytecode.Builder) {
			b.Invoke(h)
			b.Invoke(h)
			b.Op(bytecode.OpRefEQ)
		}},
	}
	want := []int64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	for _, c := range cases {
		name := c.name
		prog := buildPopOfStackOperand(t, c.combine)
		for _, eng := range []vm.Engine{vm.EngineSwitch, vm.EngineFused, vm.EngineCompiled} {
			res, err := vm.New(prog, vm.Config{Engine: eng, TierThreshold: 2}).Run()
			if err != nil {
				t.Fatalf("%s on %v: %v", name, eng, err)
			}
			if !reflect.DeepEqual(res.Output, want) {
				t.Errorf("%s on %v: output = %v, want %v", name, eng, res.Output, want)
			}
		}
	}
}

// loopAtEntrySource calls, from a compiled loop, a method whose body
// starts with a loop test. Superblock growth duplicates that test into
// the loop body's segment, so the callee's entry pc resumes mid-segment.
const loopAtEntrySource = `
class T {
    static int n;
    static void drain() {
        while (n > 0) {
            n = n - 1;
        }
    }
    static void main() {
        int s = 0;
        for (int i = 0; i < 200; i = i + 1) {
            n = i - (i / 3) * 3;
            T.drain();
            s = s + n;
        }
        print(s);
    }
}
`

// TestCallIntoDuplicatedEntry: a call from compiled code into a compiled
// method enters at the callee's entry point, with its op index and
// covered weight, not at the start of the segment that holds it. The
// compiled tier once ran the callee's loop body before its first test,
// printing -62 in fewer steps.
func TestCallIntoDuplicatedEntry(t *testing.T) {
	bd, err := pipeline.Compile("loopentry", loopAtEntrySource, pipeline.Options{InlineLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := runTier(t, bd, vm.Config{Engine: vm.EngineSwitch})
	if !reflect.DeepEqual(want.Output, []int64{0}) {
		t.Fatalf("switch output = %v, want [0]", want.Output)
	}
	got := runTier(t, bd, vm.Config{Engine: vm.EngineCompiled, TierThreshold: 2})
	if got.TierUps < 2 {
		t.Fatalf("TierUps = %d, want main and drain compiled", got.TierUps)
	}
	assertSameRun(t, got, want, "compiled", "switch")
}
