// Package verifier performs abstract stack simulation over bytecode
// methods, in the role the JVM bytecode verifier plays for the paper's
// analyses: it establishes that operand stacks agree in depth and type at
// every control-flow join (paper §2.2 relies on this to merge local states
// elementwise) and computes each method's MaxStack.
package verifier

import (
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/cfg"
)

// vkind classifies an abstract verification type.
type vkind int

const (
	vInt vkind = iota
	vBool
	vNull   // the null constant, joinable with any reference type
	vRef    // a reference of known type (ref field non-nil)
	vRefAny // a reference of unknown exact type (after a type-distinct join)
)

// vtype is a verification type.
type vtype struct {
	kind vkind
	ref  *bytecode.Type // set when kind == vRef
}

func (v vtype) String() string {
	switch v.kind {
	case vInt:
		return "int"
	case vBool:
		return "boolean"
	case vNull:
		return "null"
	case vRefAny:
		return "ref"
	default:
		return v.ref.String()
	}
}

func (v vtype) isRef() bool { return v.kind == vNull || v.kind == vRef || v.kind == vRefAny }

func typeToV(t *bytecode.Type) vtype {
	switch t.Kind {
	case bytecode.KindInt:
		return vtype{kind: vInt}
	case bytecode.KindBool:
		return vtype{kind: vBool}
	default:
		return vtype{kind: vRef, ref: t}
	}
}

// mergeV joins two verification types; ok is false on an illegal merge.
func mergeV(a, b vtype) (vtype, bool) {
	if a == b {
		return a, true
	}
	if a.isRef() && b.isRef() {
		if a.kind == vNull {
			return b, true
		}
		if b.kind == vNull {
			return a, true
		}
		if a.kind == vRef && b.kind == vRef && a.ref.Equal(b.ref) {
			return a, true
		}
		return vtype{kind: vRefAny}, true
	}
	return vtype{}, false
}

// assignableV reports whether a value of type v may be stored where
// declared type t is expected.
func assignableV(t *bytecode.Type, v vtype) bool {
	switch t.Kind {
	case bytecode.KindInt:
		return v.kind == vInt
	case bytecode.KindBool:
		return v.kind == vBool
	case bytecode.KindVoid:
		return false
	default:
		return v.kind == vNull || v.kind == vRefAny || (v.kind == vRef && v.ref.Equal(t))
	}
}

// Error is a verification failure.
type Error struct {
	Method string
	PC     int
	Msg    string
}

func (e *Error) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("verify %s: %s", e.Method, e.Msg)
	}
	return fmt.Sprintf("verify %s: pc %d: %s", e.Method, e.PC, e.Msg)
}

type verifier struct {
	p *bytecode.Program
	m *bytecode.Method
	g *cfg.Graph

	// entry[b] is the stack state at the entry of block b, valid when
	// seen[b] is set. (The state itself may be an empty stack, so a nil
	// check cannot stand in for a visited flag.)
	entry    [][]vtype
	seen     []bool
	maxStack int
}

func (v *verifier) errf(pc int, format string, args ...any) error {
	return &Error{Method: v.m.QualifiedName(), PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// Verify checks one method and fills in its MaxStack. Malformed bytecode
// always surfaces as an *Error naming the method — never a panic: a
// recover guard turns internal faults on adversarial input (e.g. from
// fuzzing) into ordinary rejections, so a parallel verify pool cannot be
// taken down by one bad method.
func Verify(p *bytecode.Program, m *bytecode.Method) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Method: m.QualifiedName(), PC: -1, Msg: fmt.Sprintf("internal verifier panic: %v", r)}
		}
	}()
	g, err := cfg.Build(m)
	if err != nil {
		return &Error{Method: m.QualifiedName(), PC: -1, Msg: err.Error()}
	}
	v := &verifier{
		p: p, m: m, g: g,
		entry: make([][]vtype, len(g.Blocks)),
		seen:  make([]bool, len(g.Blocks)),
	}
	if err := v.checkOperands(); err != nil {
		return err
	}
	v.seen[0] = true

	work := []int{0}
	inWork := make([]bool, len(g.Blocks))
	inWork[0] = true
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		out, targets, err := v.simulate(g.Blocks[id])
		if err != nil {
			return err
		}
		for _, tgt := range targets {
			changed, err := v.mergeInto(tgt, out)
			if err != nil {
				return err
			}
			if changed && !inWork[tgt] {
				work = append(work, tgt)
				inWork[tgt] = true
			}
		}
	}
	m.MaxStack = v.maxStack
	return nil
}

// VerifyProgram verifies every method, and the entry point when the
// program names one: it must resolve to a static method with no
// parameters.
func VerifyProgram(p *bytecode.Program) error {
	if p.Main != (bytecode.MethodRef{}) {
		if mm := p.Method(p.Main); mm == nil || !mm.Static || len(mm.Params) != 0 {
			return &Error{Method: p.Main.String(), PC: -1, Msg: "main must resolve to a static method with no parameters"}
		}
	}
	for _, m := range p.Methods() {
		if err := Verify(p, m); err != nil {
			return err
		}
	}
	return nil
}

// checkOperands resolves the operands of every instruction, reachable or
// not, against the program: the VM decodes whole methods before running
// any of them, so an operand that only dead code names must resolve too.
// Field accesses must name a declared field of the matching kind
// (instance or static), allocations a declared class or an element type,
// calls a declared method.
func (v *verifier) checkOperands() error {
	for pc := range v.m.Code {
		in := &v.m.Code[pc]
		switch in.Op {
		case bytecode.OpLoad, bytecode.OpStore:
			if in.A < 0 || in.A >= int64(len(v.m.SlotTypes)) {
				return v.errf(pc, "%s of undeclared slot %d", in.Op, in.A)
			}
		case bytecode.OpGetField, bytecode.OpPutField, bytecode.OpGetStatic, bytecode.OpPutStatic:
			var f *bytecode.Field
			if c := v.p.Class(in.Field.Class); c != nil {
				f = c.Field(in.Field.Name)
			}
			if f == nil {
				return v.errf(pc, "unresolved field %s", in.Field)
			}
			if static := in.Op == bytecode.OpGetStatic || in.Op == bytecode.OpPutStatic; f.Static != static {
				return v.errf(pc, "%s of %s: static mismatch", in.Op, in.Field)
			}
		case bytecode.OpNewInstance:
			if in.Type == nil || in.Type.Kind != bytecode.KindClass || v.p.Class(in.Type.Class) == nil {
				return v.errf(pc, "newinstance of unknown class %v", in.Type)
			}
		case bytecode.OpNewArray:
			if in.Type == nil {
				return v.errf(pc, "newarray missing element type")
			}
		case bytecode.OpInvoke, bytecode.OpSpawn:
			if v.p.Method(in.Method) == nil {
				return v.errf(pc, "unresolved method %s", in.Method)
			}
		}
		if in.Op < bytecode.OpNop || in.Op > bytecode.OpTrap {
			return v.errf(pc, "unknown opcode %v", in.Op)
		}
	}
	return nil
}

// mergeInto merges state into block id's entry; reports whether it changed.
func (v *verifier) mergeInto(id int, state []vtype) (bool, error) {
	if !v.seen[id] {
		v.seen[id] = true
		v.entry[id] = append([]vtype(nil), state...)
		return true, nil
	}
	cur := v.entry[id]
	if len(cur) != len(state) {
		return false, v.errf(v.g.Blocks[id].Start, "stack depth mismatch at join: %d vs %d", len(cur), len(state))
	}
	changed := false
	for i := range cur {
		merged, ok := mergeV(cur[i], state[i])
		if !ok {
			return false, v.errf(v.g.Blocks[id].Start, "stack type mismatch at join: %s vs %s", cur[i], state[i])
		}
		if merged != cur[i] {
			cur[i] = merged
			changed = true
		}
	}
	return changed, nil
}

// simulate runs the block from its entry state, returning the out state
// and the successor block ids it flows to.
func (v *verifier) simulate(b *cfg.Block) (out []vtype, targets []int, err error) {
	stk := append([]vtype(nil), v.entry[b.ID]...)

	push := func(t vtype) {
		stk = append(stk, t)
		if len(stk) > v.maxStack {
			v.maxStack = len(stk)
		}
	}
	pop := func(pc int) (vtype, error) {
		if len(stk) == 0 {
			return vtype{}, v.errf(pc, "pop from empty stack")
		}
		t := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		return t, nil
	}
	popKind := func(pc int, k vkind, what string) (vtype, error) {
		t, err := pop(pc)
		if err != nil {
			return t, err
		}
		if k == vRef {
			if !t.isRef() {
				return t, v.errf(pc, "%s requires a reference, found %s", what, t)
			}
			return t, nil
		}
		if t.kind != k {
			return t, v.errf(pc, "%s requires %v operand, found %s", what, vtype{kind: k}, t)
		}
		return t, nil
	}

	for pc := b.Start; pc < b.End; pc++ {
		in := &v.m.Code[pc]
		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			push(vtype{kind: vInt})
		case bytecode.OpConstBool:
			push(vtype{kind: vBool})
		case bytecode.OpConstNull:
			push(vtype{kind: vNull})
		case bytecode.OpLoad:
			slot := int(in.A)
			if slot < 0 || slot >= len(v.m.SlotTypes) {
				return nil, nil, v.errf(pc, "load from undeclared slot %d", slot)
			}
			push(typeToV(v.m.SlotTypes[slot]))
		case bytecode.OpStore:
			slot := int(in.A)
			if slot < 0 || slot >= len(v.m.SlotTypes) {
				return nil, nil, v.errf(pc, "store to undeclared slot %d", slot)
			}
			t, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if !assignableV(v.m.SlotTypes[slot], t) {
				return nil, nil, v.errf(pc, "cannot store %s into slot %d of type %s", t, slot, v.m.SlotTypes[slot])
			}
		case bytecode.OpDup:
			if len(stk) == 0 {
				return nil, nil, v.errf(pc, "dup on empty stack")
			}
			push(stk[len(stk)-1])
		case bytecode.OpPop:
			if _, err := pop(pc); err != nil {
				return nil, nil, err
			}
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem:
			if _, err := popKind(pc, vInt, in.Op.String()); err != nil {
				return nil, nil, err
			}
			if _, err := popKind(pc, vInt, in.Op.String()); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vInt})
		case bytecode.OpNeg:
			if _, err := popKind(pc, vInt, "neg"); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vInt})
		case bytecode.OpAnd, bytecode.OpOr:
			if _, err := popKind(pc, vBool, in.Op.String()); err != nil {
				return nil, nil, err
			}
			if _, err := popKind(pc, vBool, in.Op.String()); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vBool})
		case bytecode.OpNot:
			if _, err := popKind(pc, vBool, "not"); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vBool})
		case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
			bytecode.OpCmpGT, bytecode.OpCmpGE:
			a, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			bb, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			// Equality works on int or bool pairs; ordering on ints.
			ordered := in.Op != bytecode.OpCmpEQ && in.Op != bytecode.OpCmpNE
			okPair := (a.kind == vInt && bb.kind == vInt) ||
				(!ordered && a.kind == vBool && bb.kind == vBool)
			if !okPair {
				return nil, nil, v.errf(pc, "%s on %s and %s", in.Op, bb, a)
			}
			push(vtype{kind: vBool})
		case bytecode.OpRefEQ, bytecode.OpRefNE:
			if _, err := popKind(pc, vRef, in.Op.String()); err != nil {
				return nil, nil, err
			}
			if _, err := popKind(pc, vRef, in.Op.String()); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vBool})
		case bytecode.OpGoto:
			targets = append(targets, v.g.BlockOf(int(in.A)))
			return stk, targets, nil
		case bytecode.OpIfTrue, bytecode.OpIfFalse:
			if _, err := popKind(pc, vBool, in.Op.String()); err != nil {
				return nil, nil, err
			}
			targets = append(targets, v.g.BlockOf(int(in.A)))
		case bytecode.OpIfNull, bytecode.OpIfNonNull:
			if _, err := popKind(pc, vRef, in.Op.String()); err != nil {
				return nil, nil, err
			}
			targets = append(targets, v.g.BlockOf(int(in.A)))
		case bytecode.OpGetField:
			ft := v.p.FieldType(in.Field)
			if ft == nil {
				return nil, nil, v.errf(pc, "unresolved field %s", in.Field)
			}
			obj, err := popKind(pc, vRef, "getfield")
			if err != nil {
				return nil, nil, err
			}
			if obj.kind == vRef && (obj.ref.Kind != bytecode.KindClass || obj.ref.Class != in.Field.Class) {
				return nil, nil, v.errf(pc, "getfield %s on %s", in.Field, obj)
			}
			push(typeToV(ft))
		case bytecode.OpPutField:
			ft := v.p.FieldType(in.Field)
			if ft == nil {
				return nil, nil, v.errf(pc, "unresolved field %s", in.Field)
			}
			val, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if !assignableV(ft, val) {
				return nil, nil, v.errf(pc, "putfield %s: cannot store %s into %s", in.Field, val, ft)
			}
			obj, err := popKind(pc, vRef, "putfield")
			if err != nil {
				return nil, nil, err
			}
			if obj.kind == vRef && (obj.ref.Kind != bytecode.KindClass || obj.ref.Class != in.Field.Class) {
				return nil, nil, v.errf(pc, "putfield %s on %s", in.Field, obj)
			}
		case bytecode.OpGetStatic:
			ft := v.p.FieldType(in.Field)
			if ft == nil {
				return nil, nil, v.errf(pc, "unresolved field %s", in.Field)
			}
			push(typeToV(ft))
		case bytecode.OpPutStatic:
			ft := v.p.FieldType(in.Field)
			if ft == nil {
				return nil, nil, v.errf(pc, "unresolved field %s", in.Field)
			}
			val, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if !assignableV(ft, val) {
				return nil, nil, v.errf(pc, "putstatic %s: cannot store %s into %s", in.Field, val, ft)
			}
		case bytecode.OpNewInstance:
			push(vtype{kind: vRef, ref: in.Type})
		case bytecode.OpNewArray:
			if _, err := popKind(pc, vInt, "newarray length"); err != nil {
				return nil, nil, err
			}
			push(vtype{kind: vRef, ref: bytecode.ArrayOf(in.Type)})
		case bytecode.OpArrayLength:
			arr, err := popKind(pc, vRef, "arraylength")
			if err != nil {
				return nil, nil, err
			}
			if arr.kind == vRef && arr.ref.Kind != bytecode.KindArray {
				return nil, nil, v.errf(pc, "arraylength on %s", arr)
			}
			push(vtype{kind: vInt})
		case bytecode.OpAALoad:
			if _, err := popKind(pc, vInt, "aaload index"); err != nil {
				return nil, nil, err
			}
			arr, err := popKind(pc, vRef, "aaload")
			if err != nil {
				return nil, nil, err
			}
			if arr.kind == vRef {
				if !arr.ref.IsRefArray() {
					return nil, nil, v.errf(pc, "aaload on %s", arr)
				}
				push(vtype{kind: vRef, ref: arr.ref.Elem})
			} else {
				push(vtype{kind: vRefAny})
			}
		case bytecode.OpAAStore:
			val, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if !val.isRef() {
				return nil, nil, v.errf(pc, "aastore of non-reference %s", val)
			}
			if _, err := popKind(pc, vInt, "aastore index"); err != nil {
				return nil, nil, err
			}
			arr, err := popKind(pc, vRef, "aastore")
			if err != nil {
				return nil, nil, err
			}
			if arr.kind == vRef && !arr.ref.IsRefArray() {
				return nil, nil, v.errf(pc, "aastore on %s", arr)
			}
		case bytecode.OpIALoad:
			if _, err := popKind(pc, vInt, "iaload index"); err != nil {
				return nil, nil, err
			}
			arr, err := popKind(pc, vRef, "iaload")
			if err != nil {
				return nil, nil, err
			}
			elem := vtype{kind: vInt}
			if arr.kind == vRef {
				if arr.ref.Kind != bytecode.KindArray || arr.ref.Elem.IsRef() {
					return nil, nil, v.errf(pc, "iaload on %s", arr)
				}
				elem = typeToV(arr.ref.Elem)
			}
			push(elem)
		case bytecode.OpIAStore:
			val, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if val.isRef() {
				return nil, nil, v.errf(pc, "iastore of reference %s", val)
			}
			if _, err := popKind(pc, vInt, "iastore index"); err != nil {
				return nil, nil, err
			}
			arr, err := popKind(pc, vRef, "iastore")
			if err != nil {
				return nil, nil, err
			}
			if arr.kind == vRef && (arr.ref.Kind != bytecode.KindArray || arr.ref.Elem.IsRef()) {
				return nil, nil, v.errf(pc, "iastore on %s", arr)
			}
		case bytecode.OpInvoke:
			callee := v.p.Method(in.Method)
			if callee == nil {
				return nil, nil, v.errf(pc, "unresolved method %s", in.Method)
			}
			for i := callee.NumArgs() - 1; i >= 0; i-- {
				at := callee.ArgType(i)
				val, err := pop(pc)
				if err != nil {
					return nil, nil, err
				}
				if !assignableV(at, val) {
					return nil, nil, v.errf(pc, "invoke %s: argument %d: cannot use %s as %s", in.Method, i, val, at)
				}
			}
			if callee.Return != bytecode.Void {
				push(typeToV(callee.Return))
			}
		case bytecode.OpSpawn:
			callee := v.p.Method(in.Method)
			if callee == nil {
				return nil, nil, v.errf(pc, "unresolved method %s", in.Method)
			}
			if callee.Static || len(callee.Params) != 0 || callee.Return != bytecode.Void {
				return nil, nil, v.errf(pc, "spawn target %s must be a void instance method with no parameters", in.Method)
			}
			if _, err := popKind(pc, vRef, "spawn"); err != nil {
				return nil, nil, err
			}
		case bytecode.OpReturn:
			if v.m.Return != bytecode.Void {
				return nil, nil, v.errf(pc, "return without value in method returning %s", v.m.Return)
			}
			return stk, nil, nil
		case bytecode.OpReturnValue:
			if v.m.Return == bytecode.Void {
				return nil, nil, v.errf(pc, "returnvalue in void method")
			}
			val, err := pop(pc)
			if err != nil {
				return nil, nil, err
			}
			if !assignableV(v.m.Return, val) {
				return nil, nil, v.errf(pc, "cannot return %s from method returning %s", val, v.m.Return)
			}
			return stk, nil, nil
		case bytecode.OpPrint:
			if _, err := popKind(pc, vInt, "print"); err != nil {
				return nil, nil, err
			}
		case bytecode.OpTrap:
			return stk, nil, nil
		default:
			return nil, nil, v.errf(pc, "unknown opcode %v", in.Op)
		}
	}
	// Fell through the block end.
	targets = append(targets, v.g.BlockOf(b.End))
	return stk, targets, nil
}
