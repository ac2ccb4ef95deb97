package vm

import (
	"errors"
	"reflect"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/progen"
	"satbelim/internal/verifier"
)

// fusedOpsByHead decodes a program and returns the superinstruction kind
// at each fused head pc of the main method.
func fusedOpsByHead(t *testing.T, p *bytecode.Program) map[int]dop {
	t.Helper()
	v := New(p, Config{})
	if v.decodeErr != nil {
		t.Fatalf("decode: %v", v.decodeErr)
	}
	d := v.dprog
	out := map[int]dop{}
	for pc := range d.main.code {
		if fu := d.main.code[pc].fuse; fu >= 0 {
			out[pc] = d.main.fused[fu].op
		}
	}
	return out
}

// buildBranchIntoFused hand-builds a program whose first loop entry jumps
// into the MIDDLE of a fused region (pc 8, the second component of the
// fLLArith at pc 7), exercising the plain-instruction path that fusion
// must leave intact at every pc.
//
//	 0: const 5      ┐ fConstStore
//	 1: store i      ┘
//	 2: const 0      ┐ fConstStore
//	 3: store acc    ┘
//	 4: load acc     ; push acc before entering mid-region
//	 5: goto 8
//	 6: nop
//	 7: load acc     ┐
//	 8: load i       │ fLLArith (head 7)
//	 9: add          ┘
//	10: store acc
//	11: load i       ┐
//	12: const 1      │ fIncLocal (head 11)
//	13: sub          │
//	14: store i      ┘
//	15: load i       ┐
//	16: const 0      │ fLCCmpBr (head 15)
//	17: cmpgt        │
//	18: iftrue 7     ┘
//	19: load acc
//	20: print
//	21: return
func buildBranchIntoFused() *bytecode.Program {
	prog := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "main", true)
	i := b.DeclareSlot(bytecode.Int)
	acc := b.DeclareSlot(bytecode.Int)
	b.Const(5)
	b.Store(i)
	b.Const(0)
	b.Store(acc)
	b.Load(acc)
	b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 8})
	b.Op(bytecode.OpNop)
	b.Load(acc) // pc 7: loop head and fused head
	b.Load(i)   // pc 8: mid-region branch target
	b.Op(bytecode.OpAdd)
	b.Store(acc)
	b.Load(i)
	b.Const(1)
	b.Op(bytecode.OpSub)
	b.Store(i)
	b.Load(i)
	b.Const(0)
	b.Op(bytecode.OpCmpGT)
	b.Emit(bytecode.Instr{Op: bytecode.OpIfTrue, A: 7})
	b.Load(acc)
	b.Op(bytecode.OpPrint)
	b.Return()
	cls.Methods = append(cls.Methods, b.Build())
	prog.AddClass(cls)
	prog.Main = bytecode.MethodRef{Class: "T", Name: "main"}
	return prog
}

func TestFusionPatternDetection(t *testing.T) {
	fused := fusedOpsByHead(t, buildBranchIntoFused())
	want := map[int]dop{
		0:  fConstStore,
		2:  fConstStore,
		7:  fLLArith,
		11: fIncLocal,
		15: fLCCmpBr,
	}
	for pc, op := range want {
		if fused[pc] != op {
			t.Errorf("pc %d: fused op %d, want %d (all: %v)", pc, fused[pc], op, fused)
		}
	}
}

func TestBranchIntoFusedRegion(t *testing.T) {
	p := buildBranchIntoFused()
	var results []*Result
	// The compiled engine tiers main up on its first back-edge, so the
	// mid-region branch target is also checked in compiled code.
	for _, eng := range []Engine{EngineFused, EngineSwitch, EngineCompiled} {
		// Quantum 3 additionally forces fused ops to straddle quantum
		// boundaries and fall back to single-instruction execution.
		for _, quantum := range []int{0, 3} {
			res, err := New(p, Config{Engine: eng, Quantum: quantum, TierThreshold: 1}).Run()
			if err != nil {
				t.Fatalf("engine %v quantum %d: %v", eng, quantum, err)
			}
			if !reflect.DeepEqual(res.Output, []int64{15}) {
				t.Errorf("engine %v quantum %d: output = %v, want [15]", eng, quantum, res.Output)
			}
			if eng == EngineCompiled && res.TierSegExecs == 0 {
				t.Errorf("quantum %d: the compiled engine ran no compiled segment", quantum)
			}
			results = append(results, res)
		}
	}
	for _, res := range results[1:] {
		if res.Steps != results[0].Steps {
			t.Errorf("step counts diverge across engines/quanta: %d vs %d", res.Steps, results[0].Steps)
		}
	}
}

// TestUndecodableProgramIsRefused: a hand-built program the verifier
// rejects (its main calls a method that does not exist) does not decode,
// and every engine refuses it from Run with the same structured error
// before executing anything — no engine quietly runs it on another.
func TestUndecodableProgramIsRefused(t *testing.T) {
	prog := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "main", true)
	b.Const(1)
	b.Op(bytecode.OpPrint)
	b.Invoke(bytecode.MethodRef{Class: "T", Name: "nope"})
	b.Return()
	cls.Methods = append(cls.Methods, b.Build())
	prog.AddClass(cls)
	prog.Main = bytecode.MethodRef{Class: "T", Name: "main"}
	if err := verifier.VerifyProgram(prog); err == nil {
		t.Fatal("verifier accepted a call to an unresolved method")
	}

	for _, eng := range []Engine{EngineFused, EngineCompiled, EngineSwitch} {
		v := New(prog, Config{Engine: eng, TierThreshold: 1})
		res, err := v.Run()
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%v: err = %v, want *DecodeError", eng, err)
		}
		if de.Method != "T.main" || de.PC != 2 || de.Msg != "unresolved method T.nope" {
			t.Errorf("%v: DecodeError = %+v", eng, de)
		}
		if res != nil || v.steps != 0 || len(v.output) != 0 {
			t.Errorf("%v: refused program executed (steps=%d output=%v)", eng, v.steps, v.output)
		}
	}
}

// TestEngineSelection: a run executes on, and reports, exactly the
// engine its Config names.
func TestEngineSelection(t *testing.T) {
	p := compileSrc(t, `class A { static void main() { print(7); } }`, 0)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "fused"},
		{Config{Engine: EngineSwitch}, "switch"},
		{Config{Engine: EngineCompiled}, "compiled"},
		{Config{Engine: EngineCompiled, CheckElisions: true}, "compiled"},
	} {
		res, err := New(p, tc.cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != tc.want {
			t.Errorf("Result.Engine = %q, want %q", res.Engine, tc.want)
		}
	}
}

// TestDecodeTotalOnVerifiedPrograms: decoding is total for every program
// the verifier accepts — the generator corpora of the default and the
// campaign configurations here, the FuzzParse corpus in minijava — so no
// engine ever has to refuse a verified program.
func TestDecodeTotalOnVerifiedPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for _, cfg := range []progen.Config{progen.DefaultConfig(), progen.CampaignConfig()} {
		for i, src := range progen.Corpus(4242, n, cfg) {
			p := compileSrc(t, src, 50)
			if err := New(p, Config{}).decodeErr; err != nil {
				t.Fatalf("corpus program %d: verified but undecodable: %v\n%s", i, err, src)
			}
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		err  bool
	}{
		{"fused", EngineFused, false},
		{"", EngineFused, false},
		{"switch", EngineSwitch, false},
		{"jit", EngineFused, true},
	} {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestFramePoolReuse(t *testing.T) {
	// Enough calls to cycle frames through the pool many times; a stale
	// local or stack slot would corrupt the running sum.
	out := run(t, `
class A {
    static int add(int a, int b) { int s = a + b; return s; }
    static void main() {
        int total = 0;
        int i = 0;
        while (i < 1000) { total = A.add(total, i); i = i + 1; }
        print(total);
    }
}
`)
	if !reflect.DeepEqual(out, []int64{499500}) {
		t.Errorf("output = %v, want [499500]", out)
	}
}
