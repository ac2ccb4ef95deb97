package vm

import (
	"fmt"

	"satbelim/internal/heap"
	"satbelim/internal/obs"
)

// This file is the execution half of the pre-decoded engine. It mirrors
// the reference switch interpreter instruction for instruction — same
// step accounting, same scheduler-quantum boundaries, same error strings
// and error pcs, same barrier/oracle call order — so results are
// bit-identical. The wins are structural: operands resolved at decode
// time, pooled frames, an explicit stack pointer instead of slice
// reslicing, and superinstructions that collapse the hottest 2–4
// instruction sequences into one dispatch.

// fframe is a pooled activation record. stack is used with an explicit
// stack pointer (sp) and grows on demand, so unverified programs with an
// understated MaxStack behave like the baseline's append-based stack.
type fframe struct {
	m      *dmethod
	pc     int32
	sp     int32
	locals []heap.Value
	stack  []heap.Value
}

func (f *fframe) push(val heap.Value) {
	if int(f.sp) == len(f.stack) {
		f.stack = append(f.stack, heap.Value{})
	}
	f.stack[f.sp] = val
	f.sp++
}

func (f *fframe) pop() heap.Value {
	f.sp--
	return f.stack[f.sp]
}

// fthread is one cooperative thread of the fused and compiled engines.
type fthread struct {
	id     int
	frames []*fframe
	done   bool
	// span is the thread's observability lane span (inert when tracing
	// is disabled).
	span obs.Span
}

// ferrf builds a RuntimeError at the frame's current pc.
func (v *VM) ferrf(f *fframe, format string, args ...any) error {
	line := 0
	if int(f.pc) < len(f.m.code) {
		line = int(f.m.code[f.pc].line)
	}
	return &RuntimeError{Method: f.m.name, PC: int(f.pc), Line: line, Msg: fmt.Sprintf(format, args...)}
}

// spawn starts callee on a new fused/compiled-engine thread with recv as
// its receiver, which (with everything it reaches) is thereby published.
func (v *VM) spawn(callee *dmethod, recv heap.Value) {
	nf := callee.acquire()
	nf.locals[0] = recv
	v.publish(recv.R)
	v.fthreads = append(v.fthreads, &fthread{id: len(v.fthreads), frames: []*fframe{nf}, span: threadSpan(len(v.fthreads))})
}

// stepFused executes one plain decoded instruction. It is the switch
// interpreter's step() over the resolved form.
func (v *VM) stepFused(t *fthread, f *fframe, in *dinstr) error {
	v.steps++

	switch in.op {
	case dNop:
	case dConst:
		f.push(heap.IntVal(in.imm))
	case dConstNull:
		f.push(heap.NullVal())
	case dLoad:
		f.push(f.locals[in.a])
	case dStore:
		f.locals[in.a] = f.pop()
	case dDup:
		f.push(f.stack[f.sp-1])
	case dPop:
		f.sp--
	case dAdd, dSub, dMul:
		y, x := f.pop().I, f.pop().I
		f.push(heap.IntVal(arith(in.op, x, y)))
	case dDiv, dRem:
		y, x := f.pop().I, f.pop().I
		if y == 0 {
			return v.ferrf(f, "division by zero")
		}
		if in.op == dDiv {
			f.push(heap.IntVal(x / y))
		} else {
			f.push(heap.IntVal(x % y))
		}
	case dNeg:
		f.push(heap.IntVal(-f.pop().I))
	case dAnd:
		y, x := f.pop().I, f.pop().I
		f.push(heap.IntVal(x & y))
	case dOr:
		y, x := f.pop().I, f.pop().I
		f.push(heap.IntVal(x | y))
	case dNot:
		f.push(heap.IntVal(1 - f.pop().I))
	case dCmpEQ, dCmpNE, dCmpLT, dCmpLE, dCmpGT, dCmpGE:
		y, x := f.pop().I, f.pop().I
		f.push(heap.IntVal(b2i(intCmp(in.op, x, y))))
	case dRefEQ:
		y, x := f.pop().R, f.pop().R
		f.push(heap.IntVal(b2i(x == y)))
	case dRefNE:
		y, x := f.pop().R, f.pop().R
		f.push(heap.IntVal(b2i(x != y)))

	case dGoto:
		f.pc = in.a
		return nil
	case dIfTrue:
		if f.pop().I != 0 {
			f.pc = in.a
			return nil
		}
	case dIfFalse:
		if f.pop().I == 0 {
			f.pc = in.a
			return nil
		}
	case dIfNull:
		if f.pop().R == heap.Null {
			f.pc = in.a
			return nil
		}
	case dIfNonNull:
		if f.pop().R != heap.Null {
			f.pc = in.a
			return nil
		}

	case dGetFieldRef, dGetFieldInt:
		obj := f.pop()
		fr := &f.m.fields[in.a]
		if obj.R == heap.Null {
			return v.ferrf(f, "null pointer dereference reading %s", fr.ref)
		}
		o := v.heap.Get(obj.R)
		if o == nil {
			return v.ferrf(f, "heap: null dereference reading %s", fr.ref)
		}
		val := o.Fields[fr.idx]
		if in.op == dGetFieldRef {
			val.IsRef = true
		}
		f.push(val)
	case dPutFieldRef, dPutFieldInt:
		val := f.pop()
		obj := f.pop()
		fr := &f.m.fields[in.a]
		if obj.R == heap.Null {
			return v.ferrf(f, "null pointer dereference writing %s", fr.ref)
		}
		o := v.heap.Get(obj.R)
		if o == nil {
			return v.ferrf(f, "heap: null dereference writing %s", fr.ref)
		}
		old := o.Fields[fr.idx]
		o.Fields[fr.idx] = val
		if in.op == dPutFieldRef {
			if err := v.storeBarrier(&f.m.sites[in.b], t.id, old.R, val.R, obj.R); err != nil {
				return err
			}
		}
	case dGetStaticRef, dGetStaticInt:
		val := *f.m.statics[in.a]
		if in.op == dGetStaticRef {
			val.IsRef = true
		}
		f.push(val)
	case dPutStaticRef, dPutStaticInt:
		slot := f.m.statics[in.a]
		old, val := *slot, f.pop()
		*slot = val
		if in.op == dPutStaticRef {
			v.staticStore(old.R, val.R)
		}

	case dNewInstance:
		al := &f.m.allocs[in.a]
		f.push(v.allocated(v.heap.AllocObjectN(al.class, al.nFields), f.m, f.pc, t.id))
	case dNewArrayRef, dNewArrayInt:
		n := f.pop().I
		if n < 0 {
			return v.ferrf(f, "negative array size %d", n)
		}
		r, err := v.heap.AllocArray(in.op == dNewArrayRef, n)
		if err != nil {
			return v.ferrf(f, "%v", err)
		}
		f.push(v.allocated(r, f.m, f.pc, t.id))
	case dArrayLength:
		arr := f.pop()
		if arr.R == heap.Null {
			return v.ferrf(f, "null pointer dereference in arraylength")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			return v.ferrf(f, "heap: null array dereference")
		}
		f.push(heap.IntVal(int64(len(o.Elems))))

	case dAALoad, dIALoad:
		idx := f.pop().I
		arr := f.pop()
		if arr.R == heap.Null {
			return v.ferrf(f, "null pointer dereference in array load")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			return v.ferrf(f, "heap: null array dereference")
		}
		if idx < 0 || idx >= int64(len(o.Elems)) {
			return v.ferrf(f, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
		}
		val := o.Elems[idx]
		if in.op == dAALoad {
			val.IsRef = true
		}
		f.push(val)
	case dAAStore, dIAStore:
		val := f.pop()
		idx := f.pop().I
		arr := f.pop()
		if arr.R == heap.Null {
			return v.ferrf(f, "null pointer dereference in array store")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			return v.ferrf(f, "heap: null array dereference")
		}
		if idx < 0 || idx >= int64(len(o.Elems)) {
			return v.ferrf(f, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
		}
		old := o.Elems[idx]
		o.Elems[idx] = val
		if in.op == dAAStore {
			if err := v.storeBarrier(&f.m.sites[in.b], t.id, old.R, val.R, arr.R); err != nil {
				return err
			}
		}

	case dInvoke:
		cr := &f.m.callees[in.a]
		callee := cr.m
		nf := callee.acquire()
		n := int32(callee.numArgs)
		base := f.sp - n
		copy(nf.locals[:n], f.stack[base:f.sp])
		f.sp = base
		if !callee.static && nf.locals[0].R == heap.Null {
			callee.release(nf)
			return v.ferrf(f, "null receiver calling %s", cr.ref)
		}
		f.pc++
		t.frames = append(t.frames, nf)
		return nil
	case dSpawn:
		recv := f.pop()
		if recv.R == heap.Null {
			return v.ferrf(f, "null receiver in spawn")
		}
		v.spawn(f.m.callees[in.a].m, recv)
	case dReturn:
		t.frames = t.frames[:len(t.frames)-1]
		f.m.release(f)
		return nil
	case dReturnValue:
		rv := f.pop()
		t.frames = t.frames[:len(t.frames)-1]
		f.m.release(f)
		if len(t.frames) > 0 {
			t.frames[len(t.frames)-1].push(rv)
		}
		return nil
	case dPrint:
		v.output = append(v.output, f.pop().I)
	case dTrap:
		return v.ferrf(f, "missing return value")
	}
	f.pc++
	return nil
}

// execFused executes one superinstruction covering fi.n base
// instructions. Steps are credited up front: every error a fused form can
// raise occurs at its final component, by which point the baseline would
// have counted all n components too. Error paths first move f.pc to the
// failing component so diagnostics match the reference engine exactly.
func (v *VM) execFused(t *fthread, f *fframe, fi *finstr) error {
	v.steps += int64(fi.n)
	v.fusedExecs++

	switch fi.op {
	case fLLCmpBr, fLCCmpBr:
		x := f.locals[fi.a].I
		y := fi.imm
		if fi.op == fLLCmpBr {
			y = f.locals[fi.b].I
		}
		if intCmp(dop(fi.c), x, y) == (fi.e != 0) {
			f.pc = fi.d
		} else {
			f.pc += int32(fi.n)
		}
	case fIncLocal:
		f.locals[fi.b] = heap.IntVal(arith(dop(fi.c), f.locals[fi.a].I, fi.imm))
		f.pc += 4
	case fLLArith:
		f.push(heap.IntVal(arith(dop(fi.c), f.locals[fi.a].I, f.locals[fi.b].I)))
		f.pc += 3
	case fLCArith:
		f.push(heap.IntVal(arith(dop(fi.c), f.locals[fi.a].I, fi.imm)))
		f.pc += 3
	case fConstStore:
		f.locals[fi.b] = heap.IntVal(fi.imm)
		f.pc += 2

	case fLGetFieldRef, fLGetFieldInt:
		obj := f.locals[fi.a]
		fr := &f.m.fields[fi.b]
		if obj.R == heap.Null {
			f.pc++
			return v.ferrf(f, "null pointer dereference reading %s", fr.ref)
		}
		o := v.heap.Get(obj.R)
		if o == nil {
			f.pc++
			return v.ferrf(f, "heap: null dereference reading %s", fr.ref)
		}
		val := o.Fields[fr.idx]
		if fi.op == fLGetFieldRef {
			val.IsRef = true
		}
		f.push(val)
		f.pc += 2
	case fLLPutFieldRef, fLLPutFieldInt:
		obj := f.locals[fi.a]
		val := f.locals[fi.b]
		fr := &f.m.fields[fi.c]
		if obj.R == heap.Null {
			f.pc += 2
			return v.ferrf(f, "null pointer dereference writing %s", fr.ref)
		}
		o := v.heap.Get(obj.R)
		if o == nil {
			f.pc += 2
			return v.ferrf(f, "heap: null dereference writing %s", fr.ref)
		}
		old := o.Fields[fr.idx]
		o.Fields[fr.idx] = val
		if fi.op == fLLPutFieldRef {
			if err := v.storeBarrier(&f.m.sites[fi.site], t.id, old.R, val.R, obj.R); err != nil {
				return err
			}
		}
		f.pc += 3

	case fLLAALoad, fLLIALoad:
		arr := f.locals[fi.a]
		idx := f.locals[fi.b].I
		if arr.R == heap.Null {
			f.pc += 2
			return v.ferrf(f, "null pointer dereference in array load")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			f.pc += 2
			return v.ferrf(f, "heap: null array dereference")
		}
		if idx < 0 || idx >= int64(len(o.Elems)) {
			f.pc += 2
			return v.ferrf(f, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
		}
		val := o.Elems[idx]
		if fi.op == fLLAALoad {
			val.IsRef = true
		}
		f.push(val)
		f.pc += 3
	case fLLLAAStore, fLLLIAStore:
		arr := f.locals[fi.a]
		idx := f.locals[fi.b].I
		val := f.locals[fi.c]
		if arr.R == heap.Null {
			f.pc += 3
			return v.ferrf(f, "null pointer dereference in array store")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			f.pc += 3
			return v.ferrf(f, "heap: null array dereference")
		}
		if idx < 0 || idx >= int64(len(o.Elems)) {
			f.pc += 3
			return v.ferrf(f, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
		}
		old := o.Elems[idx]
		o.Elems[idx] = val
		if fi.op == fLLLAAStore {
			if err := v.storeBarrier(&f.m.sites[fi.site], t.id, old.R, val.R, arr.R); err != nil {
				return err
			}
		}
		f.pc += 4
	}
	return nil
}

// arith evaluates the fusible arithmetic ops.
func arith(op dop, x, y int64) int64 {
	switch op {
	case dAdd:
		return x + y
	case dSub:
		return x - y
	default:
		return x * y
	}
}

// intCmp evaluates the integer comparisons.
func intCmp(op dop, x, y int64) bool {
	switch op {
	case dCmpEQ:
		return x == y
	case dCmpNE:
		return x != y
	case dCmpLT:
		return x < y
	case dCmpLE:
		return x <= y
	case dCmpGT:
		return x > y
	default:
		return x >= y
	}
}
