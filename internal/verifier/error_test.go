package verifier

import (
	"errors"
	"strings"
	"testing"

	"satbelim/internal/bytecode"
)

// Error-path hardening: malformed bytecode — whether hand-assembled,
// mutated by fuzzing, or produced by a buggy transform — must surface as
// an *Error carrying the method name, never as a panic.

func TestVerifyRejectsBranchTargetOutOfRange(t *testing.T) {
	expectReject(t, "branch target 999 out of range", func(b *bytecode.Builder) {
		b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 999})
		b.Return()
	})
}

func TestVerifyRejectsNegativeBranchTarget(t *testing.T) {
	expectReject(t, "out of range", func(b *bytecode.Builder) {
		b.Emit(bytecode.Instr{Op: bytecode.OpIfTrue, A: -7})
		b.Return()
	})
}

func TestVerifyRejectsUnresolvedField(t *testing.T) {
	expectReject(t, "unresolved field", func(b *bytecode.Builder) {
		b.GetStatic(bytecode.FieldRef{Class: "Nope", Name: "ghost"})
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

func TestVerifyRejectsUnresolvedInvoke(t *testing.T) {
	expectReject(t, "unresolved method", func(b *bytecode.Builder) {
		b.Invoke(bytecode.MethodRef{Class: "Nope", Name: "ghost"})
		b.Return()
	})
}

func TestVerifyRejectsBranchOnRef(t *testing.T) {
	expectReject(t, "iftrue", func(b *bytecode.Builder) {
		b.New("T")
		b.IfTrue("end")
		b.Label("end")
		b.Return()
	})
}

func TestVerifyRejectsUnderflowAcrossBlocks(t *testing.T) {
	// The underflowing pop sits in its own block, reached by a branch:
	// exercises merge-then-simulate rather than straight-line checking.
	expectReject(t, "pop from empty stack", func(b *bytecode.Builder) {
		b.ConstBool(true)
		b.IfTrue("deep")
		b.Return()
		b.Label("deep")
		b.Op(bytecode.OpPop)
		b.Return()
	})
}

// TestVerifyPanicIsolated drives the verifier into an internal fault —
// a local slot declared with a nil type, whose load dereferences it —
// and checks the recover guard converts it into an *Error instead of
// unwinding the caller (e.g. a parallel verify pool).
func TestVerifyPanicIsolated(t *testing.T) {
	p := bytecode.NewProgram()
	cls := &bytecode.Class{Name: "T"}
	b := bytecode.NewBuilder("T", "bad", true)
	b.Load(b.DeclareSlot(nil)) // slot type nil: invalid
	b.Op(bytecode.OpPop)
	b.Return()
	m := b.Build()
	cls.Methods = append(cls.Methods, m)
	p.AddClass(cls)

	err := Verify(p, m) // must not panic
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if ve.Method != "T.bad" {
		t.Errorf("error names method %q, want T.bad", ve.Method)
	}
	if !strings.Contains(ve.Msg, "panic") {
		t.Errorf("Msg = %q, want internal panic diagnostic", ve.Msg)
	}
}

// TestVerifyErrorsNameTheMethod asserts the Error type renders the
// method for every rejection shape (cfg failure vs simulate failure).
func TestVerifyErrorsNameTheMethod(t *testing.T) {
	builders := []func(b *bytecode.Builder){
		func(b *bytecode.Builder) { b.Emit(bytecode.Instr{Op: bytecode.OpGoto, A: 123}); b.Return() },
		func(b *bytecode.Builder) { b.Op(bytecode.OpPop); b.Return() },
	}
	for i, build := range builders {
		p := bytecode.NewProgram()
		cls := &bytecode.Class{Name: "T"}
		b := bytecode.NewBuilder("T", "bad", true)
		build(b)
		m := b.Build()
		cls.Methods = append(cls.Methods, m)
		p.AddClass(cls)
		err := Verify(p, m)
		if err == nil || !strings.Contains(err.Error(), "T.bad") {
			t.Errorf("case %d: error %v does not name the method", i, err)
		}
	}
}

// TestVerifyResolvesDeadCodeOperands: the VM decodes whole methods before
// running any, so every operand the decoder resolves must resolve in
// unreachable code too — each case plants its bad instruction after the
// method's return, where the stack simulation never looks.
func TestVerifyResolvesDeadCodeOperands(t *testing.T) {
	for _, tc := range []struct {
		want string
		in   bytecode.Instr
	}{
		{"unresolved method Nope.ghost", bytecode.Instr{Op: bytecode.OpInvoke, Method: bytecode.MethodRef{Class: "Nope", Name: "ghost"}}},
		{"unresolved method T.ghost", bytecode.Instr{Op: bytecode.OpSpawn, Method: bytecode.MethodRef{Class: "T", Name: "ghost"}}},
		{"unresolved field T.ghost", bytecode.Instr{Op: bytecode.OpPutField, Field: bytecode.FieldRef{Class: "T", Name: "ghost"}}},
		{"getstatic of T.f: static mismatch", bytecode.Instr{Op: bytecode.OpGetStatic, Field: bytecode.FieldRef{Class: "T", Name: "f"}}},
		{"getfield of T.s: static mismatch", bytecode.Instr{Op: bytecode.OpGetField, Field: bytecode.FieldRef{Class: "T", Name: "s"}}},
		{"newinstance of unknown class Nope", bytecode.Instr{Op: bytecode.OpNewInstance, Type: bytecode.ClassType("Nope")}},
		{"newinstance of unknown class", bytecode.Instr{Op: bytecode.OpNewInstance}},
		{"newarray missing element type", bytecode.Instr{Op: bytecode.OpNewArray}},
		{"store of undeclared slot 9", bytecode.Instr{Op: bytecode.OpStore, A: 9}},
		{"unknown opcode", bytecode.Instr{Op: bytecode.OpTrap + 1}},
	} {
		t.Run(tc.want, func(t *testing.T) {
			expectReject(t, "pc 1: "+tc.want, func(b *bytecode.Builder) {
				b.Return()
				b.Emit(tc.in)
				b.Return()
			})
		})
	}
}

// TestVerifyProgramChecksMain: a program that names an entry point must
// name a static method with no parameters; a program that names none
// (a library) verifies.
func TestVerifyProgramChecksMain(t *testing.T) {
	build := func(main string, static bool) *bytecode.Program {
		p := bytecode.NewProgram()
		cls := &bytecode.Class{Name: "T"}
		b := bytecode.NewBuilder("T", "run", static)
		b.Return()
		cls.Methods = append(cls.Methods, b.Build())
		p.AddClass(cls)
		if main != "" {
			p.Main = bytecode.MethodRef{Class: "T", Name: main}
		}
		return p
	}
	for _, tc := range []struct {
		main   string
		static bool
		ok     bool
	}{
		{"run", true, true},
		{"", true, true},
		{"missing", true, false},
		{"run", false, false},
	} {
		err := VerifyProgram(build(tc.main, tc.static))
		if (err == nil) != tc.ok {
			t.Errorf("main %q static=%v: err = %v, want ok=%v", tc.main, tc.static, err, tc.ok)
		}
		var ve *Error
		if err != nil && (!errors.As(err, &ve) || !strings.Contains(ve.Msg, "main must resolve")) {
			t.Errorf("main %q: err = %v, want a main diagnostic", tc.main, err)
		}
	}
}
