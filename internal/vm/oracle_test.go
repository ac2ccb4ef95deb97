package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/satb"
)

// findPutField returns (method, pc) of the first reference putfield of the
// named field in the program.
func findPutField(t *testing.T, p *bytecode.Program, field string) (*bytecode.Method, int) {
	t.Helper()
	for _, m := range p.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op == bytecode.OpPutField && in.Field.Name == field {
				return m, pc
			}
		}
	}
	t.Fatalf("no putfield %s in program", field)
	return nil, 0
}

// oracleRun runs p under cfg with the oracle armed on every engine — the
// compiled one at the lowest tier threshold, so the stores run compiled
// code — and returns the fused run's outcome after checking the others
// ended identically (same result counts, or the same error).
func oracleRun(t *testing.T, p *bytecode.Program, cfg Config) (*Result, error) {
	t.Helper()
	cfg.CheckElisions = true
	cfg.TierThreshold = 1
	var fres *Result
	var ferr error
	for _, eng := range []Engine{EngineFused, EngineSwitch, EngineCompiled} {
		cfg.Engine = eng
		res, err := New(p, cfg).Run()
		if eng == EngineFused {
			fres, ferr = res, err
			continue
		}
		if fmt.Sprint(err) != fmt.Sprint(ferr) {
			t.Errorf("%v: err = %v, fused: %v", eng, err, ferr)
		}
		if err == nil && ferr == nil && (res.Steps != fres.Steps || res.ElisionChecks != fres.ElisionChecks) {
			t.Errorf("%v: steps %d checks %d, fused: steps %d checks %d",
				eng, res.Steps, res.ElisionChecks, fres.Steps, fres.ElisionChecks)
		}
	}
	return fres, ferr
}

// TestOracleCatchesNonNullOverwrite injects an unsound pre-null elision at
// a store that dynamically overwrites a non-null reference and checks the
// oracle reports it with a precise site diagnostic.
func TestOracleCatchesNonNullOverwrite(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static void main() {
        N n = new N();
        n.next = new N();   // pre-null: genuinely elidable
        n.next = new N();   // overwrites non-null: elision would be unsound
    }
}
`, 0)
	m, _ := findPutField(t, p, "next")
	// Mark *every* next-store elided: the second execution must trip.
	for i := range m.Code {
		if m.Code[i].Op == bytecode.OpPutField && m.Code[i].Field.Name == "next" {
			m.Code[i].Elide = true
		}
	}
	_, err := New(p, Config{CheckElisions: true}).Run()
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if sv.Method != m.QualifiedName() {
		t.Errorf("violation method = %s, want %s", sv.Method, m.QualifiedName())
	}
	if sv.Elide != satb.ElidePreNull || sv.Site != satb.FieldSite {
		t.Errorf("violation kind = %v/%v, want pre-null field", sv.Elide, sv.Site)
	}
	if !strings.Contains(sv.Reason, "non-null") {
		t.Errorf("reason = %q, want non-null overwrite", sv.Reason)
	}
	if sv.AllocSite == "" {
		t.Error("violation should carry the target's allocation site")
	}
	// The oracle keeps allocation sites as method and pc and formats them
	// only for a violation; the report text must not change with that.
	const want = "soundness violation at A.main pc 7 (line 7): elided field store (pre-null): " +
		"overwritten slot holds non-null reference 2 [pre=2 new=3 target=1 alloc=A.main:0]"
	for _, eng := range []Engine{EngineFused, EngineSwitch, EngineCompiled} {
		_, err := New(p, Config{Engine: eng, CheckElisions: true, TierThreshold: 1}).Run()
		if err == nil || err.Error() != want {
			t.Errorf("%v: violation text\n got %v\nwant %s", eng, err, want)
		}
	}
}

// TestOracleCatchesEscapedTarget injects an elision at a pre-null store
// whose target has been published through a static: the slot is null, but
// the thread-locality claim is false.
func TestOracleCatchesEscapedTarget(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static N shared;
    static void main() {
        N n = new N();
        A.shared = n;       // n escapes
        n.next = new N();   // pre-null, but target is published
    }
}
`, 0)
	m, pc := findPutField(t, p, "next")
	m.Code[pc].Elide = true
	_, err := oracleRun(t, p, Config{})
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if !strings.Contains(sv.Reason, "escaped") {
		t.Errorf("reason = %q, want escape diagnostic", sv.Reason)
	}
}

// TestOracleCatchesCrossThreadStore publishes an object to a spawned
// thread; a pre-null elision on a store the second thread performs must be
// flagged even though the slot is null.
func TestOracleCatchesCrossThreadStore(t *testing.T) {
	p := compileSrc(t, `
class W {
    W next;
    void work() { this.next = new W(); }
}
class A {
    static void main() {
        W w = new W();
        spawn w.work();
        print(0);
    }
}
`, 0)
	m, pc := findPutField(t, p, "next")
	m.Code[pc].Elide = true
	_, err := oracleRun(t, p, Config{})
	var sv *SoundnessViolation
	if !errors.As(err, &sv) {
		t.Fatalf("err = %v, want *SoundnessViolation", err)
	}
	if !strings.Contains(sv.Reason, "escaped") {
		t.Errorf("reason = %q, want escape diagnostic", sv.Reason)
	}
}

// TestOracleCleanOnAnalyzedProgram runs a genuinely analyzed program under
// the oracle: elisions must validate, and the oracle must actually check
// them.
func TestOracleCleanOnAnalyzedProgram(t *testing.T) {
	p := compileSrc(t, `
class N { N next; }
class A {
    static void main() {
        int k = 0;
        for (int i = 0; i < 50; i = i + 1) {
            N head = new N();
            head.next = new N();   // pre-null every iteration
            N[] arr = new N[4];
            for (int j = 0; j < 4; j = j + 1) arr[j] = new N();
            k = k + 1;
        }
        print(k);
    }
}
`, 100)
	if _, err := core.AnalyzeProgram(p, core.Options{Mode: core.ModeFieldArray, NullOrSame: true}); err != nil {
		t.Fatal(err)
	}
	res, err := oracleRun(t, p, Config{
		Barrier:            satb.ModeConditional,
		GC:                 GCSATB,
		TriggerEveryAllocs: 20,
		CheckInvariant:     true,
	})
	if err != nil {
		t.Fatalf("oracle flagged an analyzed program: %v", err)
	}
	if res.ElisionChecks == 0 {
		t.Error("oracle ran but validated no elided stores (no elisions happened?)")
	}
	if s := res.Counters.Summarize(); len(s.UnsoundSites) > 0 {
		t.Errorf("unsound sites: %v", s.UnsoundSites)
	}
}

// TestOracleCompiledPublication: allocation and publication hooks run in
// compiled code too. Main tiers up on its first loop back-edge, so the
// allocation of n, its publication at i == 5 (through a static, or by
// handing it to a spawned thread) and the forced pre-null elision that
// then stores into it all execute compiled; the oracle must see the
// object escape and flag the store exactly as on the other engines.
func TestOracleCompiledPublication(t *testing.T) {
	for _, publish := range []string{"A.shared = n;", "spawn n.work();"} {
		p := compileSrc(t, `
class N {
    N next;
    void work() { }
}
class A {
    static N shared;
    static void main() {
        for (int i = 0; i < 10; i = i + 1) {
            N n = new N();
            if (i == 5) { `+publish+` }
            n.next = new N();   // pre-null, but n escaped at i == 5
        }
    }
}
`, 0)
		m, pc := findPutField(t, p, "next")
		m.Code[pc].Elide = true
		var want string
		for _, eng := range []Engine{EngineFused, EngineSwitch, EngineCompiled} {
			v := New(p, Config{Engine: eng, CheckElisions: true, TierThreshold: 1, Quantum: 1 << 20})
			_, err := v.Run()
			var sv *SoundnessViolation
			if !errors.As(err, &sv) || !strings.Contains(sv.Reason, "escaped") {
				t.Fatalf("%s on %v: err = %v, want escape violation", publish, eng, err)
			}
			if eng == EngineCompiled && v.opEntered == 0 {
				t.Errorf("%s: violation not raised by compiled code", publish)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s on %v: %v, fused: %s", publish, eng, err, want)
			}
		}
	}
}
