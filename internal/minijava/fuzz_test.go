package minijava_test

import (
	"errors"
	"testing"

	"satbelim/internal/codegen"
	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
)

// FuzzParse feeds arbitrary bytes through the frontend. The contract
// under fuzzing is crash-freedom plus a pipeline invariant: any input
// that parses and typechecks must also compile to bytecode that passes
// the verifier, and every program the verifier accepts must decode for
// the VM — the frontend may reject, but it must never hand the backend
// an ill-formed program.
func FuzzParse(f *testing.F) {
	f.Add("class A { static void main() { print(1); } }")
	f.Add(`class N { N next; }
class A { static void main() { N n = new N(); n.next = new N(); } }`)
	f.Add(`class W { W next; void work() { this.next = new W(); } }
class A { static void main() { W w = new W(); spawn w.work(); } }`)
	f.Add("class A { static void main() { int[] a = new int[3]; a[0] = 1; print(a[0]); } }")
	f.Add("class A {")
	f.Add("x = ;;")
	for _, src := range progen.Corpus(9000, 3, progen.DefaultConfig()) {
		f.Add(src)
	}
	// Campaign-config sources add the strided-init, alloc-reuse,
	// aliasing, and escape-store idioms the metamorphic harness
	// generates from (cmd/satbtest).
	for _, src := range progen.Corpus(17000, 3, progen.CampaignConfig()) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Pathological nesting makes the recursive-descent parser's cost
		// quadratic-ish; bound input size to keep iterations fast.
		if len(src) > 1<<12 {
			t.Skip()
		}
		ast, err := minijava.Parse("fuzz.mj", src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		checked, err := minijava.Check("fuzz.mj", ast)
		if err != nil {
			return
		}
		prog, err := codegen.Compile(checked)
		if err != nil {
			t.Fatalf("checked program failed codegen: %v\nsource:\n%s", err, src)
		}
		if err := verifier.VerifyProgram(prog); err != nil {
			t.Fatalf("checked program failed verification: %v\nsource:\n%s", err, src)
		}
		// One instruction is enough: an undecodable program is refused
		// before the first.
		var de *vm.DecodeError
		if _, err := vm.New(prog, vm.Config{MaxSteps: 1}).Run(); errors.As(err, &de) {
			t.Fatalf("verified program failed to decode: %v\nsource:\n%s", err, src)
		}
	})
}

// TestFuzzSeedsAreInteresting sanity-checks the seed corpus exercises
// both accept and reject paths when run as a plain test (go test runs
// the fuzz target over seeds only).
func TestFuzzSeedsAreInteresting(t *testing.T) {
	accepted, rejected := 0, 0
	seeds := []string{
		"class A { static void main() { print(1); } }",
		"class A {",
	}
	for _, s := range seeds {
		if _, err := minijava.Parse("s.mj", s); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("seed corpus should cover accept and reject: %d/%d", accepted, rejected)
	}
}
