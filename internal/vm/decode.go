package vm

import (
	"fmt"
	"math"

	"satbelim/internal/bytecode"
	"satbelim/internal/heap"
	"satbelim/internal/satb"
)

// This file implements the decode half of the pre-decoded execution
// engine: at VM construction every method's bytecode is translated into a
// dense internal form (dinstr) whose operands are fully resolved — field
// names become slot indices, method references become *dmethod pointers,
// barrier sites become pre-classified site records carrying the elision
// verdict decided once here instead of per execution. A second pass fuses
// the hottest instruction sequences (loop headers, local increments,
// array element stores, field stores from locals) into superinstructions.
//
// Fusion never changes semantics: the per-pc plain instructions are kept
// alongside each fused head, and the executor only takes the fused form
// when the whole sequence fits in the remaining scheduler quantum and
// instruction budget — otherwise it replays the exact per-instruction
// path of the reference interpreter, including mid-sequence thread
// rotation. Branches into the middle of a fused region simply execute the
// plain instructions at those pcs.

// dop is a dense decoded opcode.
type dop uint8

const (
	dNop dop = iota
	dConst
	dConstNull
	dLoad
	dStore
	dDup
	dPop
	dAdd
	dSub
	dMul
	dDiv
	dRem
	dNeg
	dAnd
	dOr
	dNot
	dCmpEQ
	dCmpNE
	dCmpLT
	dCmpLE
	dCmpGT
	dCmpGE
	dRefEQ
	dRefNE
	dGoto
	dIfTrue
	dIfFalse
	dIfNull
	dIfNonNull
	dGetFieldRef
	dGetFieldInt
	dPutFieldRef
	dPutFieldInt
	dGetStaticRef
	dGetStaticInt
	dPutStaticRef
	dPutStaticInt
	dNewInstance
	dNewArrayRef
	dNewArrayInt
	dArrayLength
	dAALoad
	dIALoad
	dAAStore
	dIAStore
	dInvoke
	dSpawn
	dReturn
	dReturnValue
	dPrint
	dTrap

	// Superinstructions (only ever appear in dmethod.fused, never in
	// dmethod.code). Naming: L = load local, C = constant.
	fLLCmpBr    // load x; load y; cmp; iftrue/iffalse
	fLCCmpBr    // load x; const; cmp; iftrue/iffalse
	fIncLocal   // load x; const; add/sub/mul; store y
	fLLArith    // load x; load y; add/sub/mul
	fLCArith    // load x; const; add/sub/mul
	fConstStore // const; store y
	fLGetFieldRef
	fLGetFieldInt // load obj; getfield
	fLLPutFieldRef
	fLLPutFieldInt // load obj; load val; putfield
	fLLAALoad
	fLLIALoad // load arr; load idx; aaload/iaload
	fLLLAAStore
	fLLLIAStore // load arr; load idx; load val; aastore/iastore
)

// dinstr is one decoded instruction. Operand meaning depends on op:
// slot index (load/store), branch target pc (branches), or an index into
// one of the method's operand tables (fields, statics, allocs, callees;
// b is the site-table index of barriered stores).
type dinstr struct {
	op   dop
	fuse int32 // index into dmethod.fused; -1 when this pc heads no fusion
	a    int32
	b    int32
	imm  int64
	line int32
}

// finstr is one superinstruction. n is the number of base instructions it
// covers (the unit the scheduler quantum and Result.Steps count in).
type finstr struct {
	op            dop
	n             int8
	a, b, c, d, e int32
	imm           int64
	site          int32
}

// fieldRec is a resolved instance-field operand.
type fieldRec struct {
	ref   bytecode.FieldRef
	idx   int32
	isRef bool
}

// allocRec is a resolved allocation site.
type allocRec struct {
	class   string
	nFields int
}

// calleeRec is a resolved call target. ref keeps the original method
// reference string for the null-receiver diagnostic.
type calleeRec struct {
	m   *dmethod
	ref string
}

// siteRec is a barriered store site with its decode-time elision verdict,
// the unit VM.storeBarrier works on for every engine. raw marks a site
// whose barrier reduces to its instrumentation counters (an elided
// pre-null or null-or-same verdict, or a flavor that shades nothing).
// stats is resolved against the VM's counters on first execution, so a
// never-executed site leaves no trace.
type siteRec struct {
	key   satb.SiteKey
	line  int32
	kind  satb.SiteKind
	elide satb.ElideKind
	raw   bool
	stats *satb.SiteStats
}

// dmethod is one decoded method plus its frame pool.
type dmethod struct {
	src      *bytecode.Method
	name     string // qualified "Class.Name"
	static   bool
	numArgs  int
	numSlots int
	stackCap int

	code    []dinstr
	fused   []finstr
	fields  []fieldRec
	statics []*heap.Value // static slots in the VM's heap (stable addresses)
	allocs  []allocRec
	callees []calleeRec
	sites   []siteRec

	// pool recycles frames; steady-state call-heavy execution allocates
	// nothing per invoke. recycled counts pool hits for the
	// observability layer (plain counter: the VM is single-goroutine).
	pool     []*fframe
	recycled int64

	// Compiled-tier state (EngineCompiled only; all three are inert on
	// the other engines). hotness counts method entries plus loop
	// back-edges observed on fused dispatch; tier is the closure-threaded
	// translation installed at tier-up; tierFailed bars a method whose
	// translation was rejected from being retried every quantum.
	hotness    int64
	tier       *cmethod
	tierFailed bool
}

// maxFramePool bounds the per-method free list (deep recursion spikes
// should not pin frames forever).
const maxFramePool = 64

// acquire returns a frame with zeroed locals and an empty stack.
func (m *dmethod) acquire() *fframe {
	if n := len(m.pool); n > 0 {
		f := m.pool[n-1]
		m.pool = m.pool[:n-1]
		m.recycled++
		f.pc, f.sp = 0, 0
		loc := f.locals
		for i := range loc {
			loc[i] = heap.Value{}
		}
		return f
	}
	return &fframe{m: m, locals: make([]heap.Value, m.numSlots), stack: make([]heap.Value, m.stackCap)}
}

// release returns a frame to the pool.
func (m *dmethod) release(f *fframe) {
	if len(m.pool) < maxFramePool {
		m.pool = append(m.pool, f)
	}
}

// dprogram is a decoded program (main is nil when the program has no
// main method; Run reports that).
type dprogram struct {
	main    *dmethod
	methods map[*bytecode.Method]*dmethod
}

// DecodeError is a program the VM refuses to run: an operand that does
// not resolve against the program or the heap layout. Decoding is total
// for verifier-accepted programs, so only unverified bytecode produces
// one, and every engine reports it from Run before executing anything.
type DecodeError struct {
	Method string
	PC     int
	Msg    string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("vm: decode %s pc %d: %s", e.Method, e.PC, e.Msg)
}

// decode translates the program into the dense executable form every
// engine runs from. Any unresolvable operand fails the whole decode with
// a *DecodeError. Each store's analysis verdict is projected through the
// barrier flavor's soundness predicate here, once per site, keeping
// flavor logic off the dispatch path.
func (v *VM) decode() (*dprogram, error) {
	p := v.prog
	d := &dprogram{methods: make(map[*bytecode.Method]*dmethod)}
	methods := p.Methods()
	for _, m := range methods {
		d.methods[m] = &dmethod{
			src:      m,
			name:     m.QualifiedName(),
			static:   m.Static,
			numArgs:  m.NumArgs(),
			numSlots: m.NumSlots,
			stackCap: m.MaxStack + 4,
		}
	}
	for _, m := range methods {
		if err := v.decodeMethod(d, d.methods[m]); err != nil {
			return nil, err
		}
	}
	if mm := p.Method(p.Main); mm != nil {
		d.main = d.methods[mm]
	}
	return d, nil
}

// decodeMethod fills in dm.code and the operand tables.
func (v *VM) decodeMethod(d *dprogram, dm *dmethod) error {
	p, layout, m := v.prog, v.heap.Layout(), dm.src
	dm.code = make([]dinstr, len(m.Code))
	for pc := range m.Code {
		in := &m.Code[pc]
		di := &dm.code[pc]
		di.fuse = -1
		di.line = int32(in.Line)
		fail := func(format string, args ...any) error {
			return &DecodeError{Method: dm.name, PC: pc, Msg: fmt.Sprintf(format, args...)}
		}
		switch in.Op {
		case bytecode.OpNop:
			di.op = dNop
		case bytecode.OpConst, bytecode.OpConstBool:
			di.op = dConst
			di.imm = in.A
		case bytecode.OpConstNull:
			di.op = dConstNull
		case bytecode.OpLoad, bytecode.OpStore:
			if in.A < 0 || in.A > math.MaxInt32 {
				return fail("operand %d out of range", in.A)
			}
			di.op = dLoad
			if in.Op == bytecode.OpStore {
				di.op = dStore
			}
			di.a = int32(in.A)
		case bytecode.OpDup:
			di.op = dDup
		case bytecode.OpPop:
			di.op = dPop
		case bytecode.OpAdd:
			di.op = dAdd
		case bytecode.OpSub:
			di.op = dSub
		case bytecode.OpMul:
			di.op = dMul
		case bytecode.OpDiv:
			di.op = dDiv
		case bytecode.OpRem:
			di.op = dRem
		case bytecode.OpNeg:
			di.op = dNeg
		case bytecode.OpAnd:
			di.op = dAnd
		case bytecode.OpOr:
			di.op = dOr
		case bytecode.OpNot:
			di.op = dNot
		case bytecode.OpCmpEQ:
			di.op = dCmpEQ
		case bytecode.OpCmpNE:
			di.op = dCmpNE
		case bytecode.OpCmpLT:
			di.op = dCmpLT
		case bytecode.OpCmpLE:
			di.op = dCmpLE
		case bytecode.OpCmpGT:
			di.op = dCmpGT
		case bytecode.OpCmpGE:
			di.op = dCmpGE
		case bytecode.OpRefEQ:
			di.op = dRefEQ
		case bytecode.OpRefNE:
			di.op = dRefNE
		case bytecode.OpGoto, bytecode.OpIfTrue, bytecode.OpIfFalse, bytecode.OpIfNull, bytecode.OpIfNonNull:
			if in.A < 0 || in.A > math.MaxInt32 {
				return fail("operand %d out of range", in.A)
			}
			switch in.Op {
			case bytecode.OpGoto:
				di.op = dGoto
			case bytecode.OpIfTrue:
				di.op = dIfTrue
			case bytecode.OpIfFalse:
				di.op = dIfFalse
			case bytecode.OpIfNull:
				di.op = dIfNull
			default:
				di.op = dIfNonNull
			}
			di.a = int32(in.A)
		case bytecode.OpGetField, bytecode.OpPutField:
			idx, err := layout.FieldIndex(in.Field)
			if err != nil {
				return fail("%v", err)
			}
			isRef := p.FieldType(in.Field).IsRef()
			di.a = int32(len(dm.fields))
			dm.fields = append(dm.fields, fieldRec{ref: in.Field, idx: int32(idx), isRef: isRef})
			switch {
			case in.Op == bytecode.OpGetField && isRef:
				di.op = dGetFieldRef
			case in.Op == bytecode.OpGetField:
				di.op = dGetFieldInt
			case isRef:
				di.op = dPutFieldRef
				di.b = v.addSite(dm, pc, satb.FieldSite, in)
			default:
				di.op = dPutFieldInt
			}
		case bytecode.OpGetStatic, bytecode.OpPutStatic:
			slot := v.heap.StaticSlot(in.Field)
			if slot == nil {
				return fail("unresolved static %s", in.Field)
			}
			isRef := p.FieldType(in.Field).IsRef()
			di.a = int32(len(dm.statics))
			dm.statics = append(dm.statics, slot)
			switch {
			case in.Op == bytecode.OpGetStatic && isRef:
				di.op = dGetStaticRef
			case in.Op == bytecode.OpGetStatic:
				di.op = dGetStaticInt
			case isRef:
				di.op = dPutStaticRef
			default:
				di.op = dPutStaticInt
			}
		case bytecode.OpNewInstance:
			if in.Type == nil {
				return fail("newinstance missing type")
			}
			n, ok := layout.NumFields(in.Type.Class)
			if !ok {
				return fail("unknown class %s", in.Type.Class)
			}
			di.op = dNewInstance
			di.a = int32(len(dm.allocs))
			dm.allocs = append(dm.allocs, allocRec{class: in.Type.Class, nFields: n})
		case bytecode.OpNewArray:
			if in.Type == nil {
				return fail("newarray missing element type")
			}
			di.op = dNewArrayInt
			if in.Type.IsRef() {
				di.op = dNewArrayRef
			}
		case bytecode.OpArrayLength:
			di.op = dArrayLength
		case bytecode.OpAALoad:
			di.op = dAALoad
		case bytecode.OpIALoad:
			di.op = dIALoad
		case bytecode.OpAAStore:
			di.op = dAAStore
			di.b = v.addSite(dm, pc, satb.ArraySite, in)
		case bytecode.OpIAStore:
			di.op = dIAStore
		case bytecode.OpInvoke, bytecode.OpSpawn:
			callee := p.Method(in.Method)
			if callee == nil {
				return fail("unresolved method %s", in.Method)
			}
			di.op = dInvoke
			if in.Op == bytecode.OpSpawn {
				di.op = dSpawn
			}
			di.a = int32(len(dm.callees))
			dm.callees = append(dm.callees, calleeRec{m: d.methods[callee], ref: in.Method.String()})
		case bytecode.OpReturn:
			di.op = dReturn
		case bytecode.OpReturnValue:
			di.op = dReturnValue
		case bytecode.OpPrint:
			di.op = dPrint
		case bytecode.OpTrap:
			di.op = dTrap
		default:
			return fail("unknown opcode %v", in.Op)
		}
	}
	if v.cfg.Engine != EngineSwitch { // the reference interpreter never fuses
		fuseMethod(dm)
	}
	return nil
}

// addSite records the barriered store site of instruction in.
func (v *VM) addSite(dm *dmethod, pc int, kind satb.SiteKind, in *bytecode.Instr) int32 {
	elide := v.projectElide(in)
	sp := v.spec
	dm.sites = append(dm.sites, siteRec{
		key:   satb.SiteKey{Method: dm.name, PC: pc},
		line:  int32(in.Line),
		kind:  kind,
		elide: elide,
		raw: elide == satb.ElidePreNull || elide == satb.ElideNullOrSame ||
			(!sp.ShadesPre && !sp.ShadesNew && !sp.Card),
	})
	return int32(len(dm.sites) - 1)
}

// isArith reports the fusible arithmetic ops (div/rem are excluded: their
// zero checks would complicate the fused error paths for no gain).
func isArith(op dop) bool { return op == dAdd || op == dSub || op == dMul }

// isCmp reports the integer comparisons.
func isCmp(op dop) bool { return op >= dCmpEQ && op <= dCmpGE }

// fuseMethod detects superinstruction patterns at every pc. Patterns may
// overlap: each pc keeps its plain instruction, so fusing is purely an
// execution shortcut from that head.
func fuseMethod(dm *dmethod) {
	code := dm.code
	add := func(pc int, fi finstr) {
		dm.fused = append(dm.fused, fi)
		code[pc].fuse = int32(len(dm.fused) - 1)
	}
	for pc := 0; pc < len(code); pc++ {
		c0 := &code[pc]
		// Length-4 patterns.
		if pc+3 < len(code) {
			c1, c2, c3 := &code[pc+1], &code[pc+2], &code[pc+3]
			switch {
			case c0.op == dLoad && c1.op == dLoad && isCmp(c2.op) &&
				(c3.op == dIfTrue || c3.op == dIfFalse):
				add(pc, finstr{op: fLLCmpBr, n: 4, a: c0.a, b: c1.a,
					c: int32(c2.op), d: c3.a, e: brTrueFlag(c3.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isCmp(c2.op) &&
				(c3.op == dIfTrue || c3.op == dIfFalse):
				add(pc, finstr{op: fLCCmpBr, n: 4, a: c0.a, imm: c1.imm,
					c: int32(c2.op), d: c3.a, e: brTrueFlag(c3.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isArith(c2.op) && c3.op == dStore:
				add(pc, finstr{op: fIncLocal, n: 4, a: c0.a, imm: c1.imm,
					c: int32(c2.op), b: c3.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dLoad && c3.op == dAAStore:
				add(pc, finstr{op: fLLLAAStore, n: 4, a: c0.a, b: c1.a, c: c2.a, site: c3.b})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dLoad && c3.op == dIAStore:
				add(pc, finstr{op: fLLLIAStore, n: 4, a: c0.a, b: c1.a, c: c2.a})
				continue
			}
		}
		// Length-3 patterns.
		if pc+2 < len(code) {
			c1, c2 := &code[pc+1], &code[pc+2]
			switch {
			case c0.op == dLoad && c1.op == dLoad && c2.op == dPutFieldRef:
				add(pc, finstr{op: fLLPutFieldRef, n: 3, a: c0.a, b: c1.a, c: c2.a, site: c2.b})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dPutFieldInt:
				add(pc, finstr{op: fLLPutFieldInt, n: 3, a: c0.a, b: c1.a, c: c2.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dAALoad:
				add(pc, finstr{op: fLLAALoad, n: 3, a: c0.a, b: c1.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && c2.op == dIALoad:
				add(pc, finstr{op: fLLIALoad, n: 3, a: c0.a, b: c1.a})
				continue
			case c0.op == dLoad && c1.op == dLoad && isArith(c2.op):
				add(pc, finstr{op: fLLArith, n: 3, a: c0.a, b: c1.a, c: int32(c2.op)})
				continue
			case c0.op == dLoad && c1.op == dConst && isArith(c2.op):
				add(pc, finstr{op: fLCArith, n: 3, a: c0.a, imm: c1.imm, c: int32(c2.op)})
				continue
			}
		}
		// Length-2 patterns.
		if pc+1 < len(code) {
			c1 := &code[pc+1]
			switch {
			case c0.op == dLoad && c1.op == dGetFieldRef:
				add(pc, finstr{op: fLGetFieldRef, n: 2, a: c0.a, b: c1.a})
			case c0.op == dLoad && c1.op == dGetFieldInt:
				add(pc, finstr{op: fLGetFieldInt, n: 2, a: c0.a, b: c1.a})
			case c0.op == dConst && c1.op == dStore:
				add(pc, finstr{op: fConstStore, n: 2, imm: c0.imm, b: c1.a})
			}
		}
	}
}

// brTrueFlag encodes whether the fused branch fires on a true condition.
func brTrueFlag(op dop) int32 {
	if op == dIfTrue {
		return 1
	}
	return 0
}
