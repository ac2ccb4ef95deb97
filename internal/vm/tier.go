package vm

import (
	"fmt"

	"satbelim/internal/heap"
	"satbelim/internal/obs"
)

// This file is the compiled hot-method tier (EngineCompiled), the third
// execution engine. Methods start on fused dispatch; once a method's exec
// counter (entries + loop back-edges) crosses Config.TierThreshold it is
// translated to closure-threaded code: the decoded body is partitioned
// into straight-line segments (every branch target, call return point,
// and post-terminator pc is a segment leader), each segment becomes an
// array of continuation closures plus one terminator closure whose branch
// targets are resolved to segment indices.
//
// Translation is a real compile, not a re-packaging of dispatch:
//
//   - The operand stack is simulated symbolically. Producers (constants,
//     local loads, static loads through translation-resolved slot
//     pointers, field/array loads, arithmetic) become value thunks that
//     are composed directly into their consumers, so a statement like
//     `a[i] = x.f` runs as ONE closure with no push/pop traffic and no
//     per-instruction dispatch between its parts. Thunks whose deferral
//     could reorder side effects are materialized first (only constants
//     may stay deferred past another emitted operation), so evaluation
//     order — including error order — is exactly the reference
//     interpreter's.
//   - Reference stores compile to raw writes followed by VM.storeBarrier,
//     the one store-barrier path of all engines. At an elided site it only
//     bumps the per-site counters — no barrier-mode switch, no
//     marking-phase test, no logger dispatch: the compile-time elision
//     proof pays off at full speed, which is the paper's payoff this tier
//     exists to demonstrate. Kept barriers and rearrangement stores take
//     its shared satb.BarrierSiteSpec branch so cost accounting stays
//     bit-identical, and with the oracle armed it checks compiled stores
//     exactly as it checks interpreted ones.
//   - Fused superinstructions are preserved: non-branch forms become
//     thunks or standalone compiled ops covering the same base span;
//     compare-and-branch forms become segment terminators.
//
// Parity with the other engines is structural, not hoped for:
//
//   - Scheduler-quantum and step-budget checks run only at segment
//     boundaries (loop back-edges, branches, calls — the places the
//     ROADMAP names), but a segment executes ONLY when all of its base
//     instructions fit in both the remaining quantum and the remaining
//     instruction budget. Anything that would straddle a boundary deopts
//     to fused dispatch for the tail, which rotates threads and exhausts
//     budgets at exactly the same instruction as the reference engines.
//     Thread interleaving — and therefore GC timing, barrier logging, and
//     RunContext cancellation points — is reproduced bit for bit.
//   - Step accounting is exact on every path. Each compiled op knows the
//     base-instruction prefix that precedes it (cseg.wbefore); on an
//     error the failing op reports how many base instructions it entered
//     (VM.opEntered, maintained compositionally through nested thunks),
//     and the segment runner charges prefix + entered — precisely the
//     reference interpreter's count-at-entry total. On success one
//     addition charges the whole segment.
//   - Every runtime error path first moves f.pc to the failing
//     instruction so RuntimeError diagnostics are identical; an oracle
//     violation carries its store site itself, and its op charges every
//     base instruction it covers (the store is the op's last).
//   - Conditions the tier cannot handle fall back mid-run with identical
//     semantics: a forced deopt (Config.TierForceDeoptAfter) permanently
//     re-enters fused dispatch, and a pc that is not a segment entry
//     point (resuming a quantum mid-expression) simply interprets until
//     the next one.

// DefaultTierThreshold is the exec count (method entries + loop
// back-edges) at which a method tiers up when Config.TierThreshold is 0.
const DefaultTierThreshold = 64

// cop is one compiled operation: a continuation with operands, error pc,
// and barrier decision baked in at translation time. It never touches
// f.pc except on its error path and never touches v.steps (the segment
// runner accounts steps in bulk). On error it must leave VM.opEntered
// equal to the number of base instructions entered within it.
type cop func(t *fthread, f *fframe) error

// cval is a compiled value producer (a deferred expression). On error the
// same opEntered contract as cop applies, relative to the thunk's own
// first base instruction — composers add static offsets for operands
// evaluated before it.
type cval func(t *fthread, f *fframe) (heap.Value, error)

// cterm is a segment terminator: it performs the control transfer,
// updates f.pc, and returns the next segment index in the same method, or
// termToDriver when control left the method (call, return, fallthrough
// off the end) and the driver must re-resolve.
type cterm func(t *fthread, f *fframe) (int32, error)

// termToDriver tells the segment loop to return to the quantum driver.
const termToDriver = int32(-1)

// termSwitchFrame tells the segment loop that control moved to a
// different frame (call or return): the chain re-resolves the new top
// frame's compiled entry and keeps running without a driver round trip.
const termSwitchFrame = int32(-2)

// cseg is one straight-line compiled segment.
type cseg struct {
	pc    int32 // head pc (the segment's leader)
	n     int32 // base instructions covered, terminator included
	termW int32 // of which, the terminator (with any composed operand)
	// ops is the compiled body; wbefore[i] is the base-instruction
	// prefix preceding op i (charged together with opEntered when op i
	// errors).
	ops     []cop
	wbefore []int32
	term    cterm
	// entries are the segment's resumable entry points in ascending
	// order (op index, weight covered before it, pc), used both to
	// resume after a quantum rotation and to stop a partial run at the
	// furthest boundary that still fits the remaining quantum.
	entries []segEntry
}

// segEntry is one resumable boundary inside a segment.
type segEntry struct{ op, w, pc int32 }

// cmethod is the compiled form of one method. segOf maps each pc to its
// segment index (-1 when the pc is not a leader). eSeg/eOp/eW are the
// mid-segment entry tables: every instruction boundary where the
// translation-time symbolic stack was empty is a resumable entry point —
// the real operand stack there holds exactly what the remaining compiled
// ops expect, whichever engine produced it — recording the segment, the
// op index to resume at, and the base-instruction weight already covered
// (so a resumed run charges only the remainder). This is what keeps
// compiled occupancy high across scheduler-quantum rotations: a quantum
// that ends mid-segment resumes compiled execution at the very next
// entry point instead of interpreting to the next leader.
type cmethod struct {
	segs  []cseg
	segOf []int32
	eSeg  []int32
	eOp   []int32
	eW    []int32
}

// setEntry records a resumable entry point at pc.
func (cm *cmethod) setEntry(pc, si, opIdx, wbase int32) {
	cm.eSeg[pc] = si
	cm.eOp[pc] = opIdx
	cm.eW[pc] = wbase
}

// cerr builds a runtime error at pc, recording how many base
// instructions the failing compiled op (or terminator) had entered —
// the opEntered charge protocol shared by cop, cval, and cterm.
func (v *VM) cerr(f *fframe, pc, entered int32, format string, args ...any) error {
	f.pc = pc
	v.opEntered = entered
	return v.ferrf(f, format, args...)
}

// charged passes on the result of a compiled store's barrier: a failure
// (an oracle violation) happens at the store, the op's final base
// instruction, so all w base instructions the op covers were entered.
func (v *VM) charged(err error, w int32) error {
	if err != nil {
		v.opEntered = w
	}
	return err
}

// runDecodedQuantum executes up to Quantum base instructions on one
// thread of the fused or compiled engine (on fused, tierOff is set from
// the start, so no method ever tiers up). Compiled segments execute only
// when they fit the remaining quantum and instruction budget in full;
// everything else — cold methods, mid-segment resume points, quantum
// tails, budget tails, forced deopt — runs on fused dispatch: a
// superinstruction covering n base instructions executes only when all n
// fit in both the remaining quantum and the remaining instruction budget,
// otherwise the plain per-pc instructions run, so thread rotation and
// budget exhaustion happen at exactly the same instruction as in the
// reference engine.
func (v *VM) runDecodedQuantum(t *fthread) error {
	q := v.cfg.Quantum
	for i := 0; i < q; {
		if len(t.frames) == 0 {
			t.done = true
			t.span.End()
			return nil
		}
		if v.steps >= v.maxSteps {
			return fmt.Errorf("vm: instruction budget exhausted (%d)", v.maxSteps)
		}
		f := t.frames[len(t.frames)-1]
		if int(f.pc) >= len(f.m.code) {
			return v.ferrf(f, "pc past end of method")
		}

		if cm := f.m.tier; cm != nil && !v.tierOff {
			if si := cm.eSeg[f.pc]; si >= 0 {
				k, wbase := cm.eOp[f.pc], cm.eW[f.pc]
				ran := false
				deoptAfter := v.cfg.TierForceDeoptAfter
				// Steps still runnable before the quantum or the
				// instruction budget rotates us out, whichever is nearer.
				avail := q - i
				if bs := v.maxSteps - v.steps; bs < int64(avail) {
					avail = int(bs)
				}
				for si >= 0 {
					seg := &cm.segs[si]
					need := int(seg.n - wbase)
					if need > avail {
						// The full remainder straddles the quantum or
						// budget boundary: run compiled ops up to the
						// furthest entry point that still fits, so only
						// sub-expression tails fall back to dispatch.
						rem := avail
						var pe *segEntry
						for j := range seg.entries {
							e := &seg.entries[j]
							if e.w <= wbase {
								continue
							}
							if int(e.w-wbase) > rem {
								break
							}
							pe = e
						}
						if pe != nil {
							if err := v.runSegPart(t, f, seg, k, pe.op, wbase, pe.w); err != nil {
								return err
							}
							f.pc = pe.pc
							i += int(pe.w - wbase)
							ran = true
							v.tierSegExecs++
							if deoptAfter > 0 && v.tierSegExecs >= deoptAfter {
								v.forceDeopt()
							}
						}
						break
					}
					// Segment body inlined (a call per segment is
					// measurable at this granularity): remaining ops,
					// terminator, one bulk step charge on success.
					ops := seg.ops
					for oi := int(k); oi < len(ops); oi++ {
						if err := ops[oi](t, f); err != nil {
							v.steps += int64(seg.wbefore[oi]-wbase) + int64(v.opEntered)
							return err
						}
					}
					var err error
					si, err = seg.term(t, f)
					if err != nil {
						v.steps += int64(seg.n-seg.termW-wbase) + int64(v.opEntered)
						return err
					}
					v.steps += int64(seg.n - wbase)
					i += need
					avail -= need
					ran = true
					k, wbase = 0, 0
					v.tierSegExecs++
					if deoptAfter > 0 && v.tierSegExecs >= deoptAfter {
						v.forceDeopt()
						break
					}
					if si == termSwitchFrame {
						// Control moved to another frame (call/return):
						// continue the chain there if its code is
						// compiled and the pc is an entry point. The
						// outer loop re-raises thread-done and
						// pc-past-end conditions when we break instead.
						if len(t.frames) == 0 {
							break
						}
						f = t.frames[len(t.frames)-1]
						if int(f.pc) >= len(f.m.code) || f.m.tier == nil {
							break
						}
						cm = f.m.tier
						si = cm.eSeg[f.pc]
					}
				}
				if ran {
					continue
				}
				// Compiled code was available but not even one entry
				// boundary fit the remaining quantum or budget: deopt to
				// fused dispatch until one does.
				v.tierDeopts++
			}
		}

		in := &f.m.code[f.pc]
		if !v.tierOff {
			v.tierNote(f, in)
		}
		if in.fuse >= 0 {
			fi := &f.m.fused[in.fuse]
			n := int(fi.n)
			if i+n <= q && v.steps+int64(n) <= v.maxSteps {
				if err := v.execFused(t, f, fi); err != nil {
					return err
				}
				i += n
				continue
			}
		}
		if err := v.stepFused(t, f, in); err != nil {
			return err
		}
		i++
	}
	return nil
}

// runSegPart executes compiled ops [k, k2) covering base instructions
// (wbase, w2] of a segment — a partial run that stops at an entry
// boundary instead of reaching the terminator (the caller moves f.pc to
// the boundary's pc). Used when the whole remainder would straddle a
// quantum or budget boundary.
func (v *VM) runSegPart(t *fthread, f *fframe, seg *cseg, k, k2, wbase, w2 int32) error {
	ops := seg.ops
	for i := int(k); i < int(k2); i++ {
		if err := ops[i](t, f); err != nil {
			v.steps += int64(seg.wbefore[i]-wbase) + int64(v.opEntered)
			return err
		}
	}
	v.steps += int64(w2 - wbase)
	return nil
}

// tierNote is the hotness probe on the fused per-instruction path: loop
// back-edges (plain or at the head of a fused compare-and-branch) heat
// the current method, calls heat the callee. Crossing the threshold
// translates the method immediately, so a hot loop tiers up mid-method.
func (v *VM) tierNote(f *fframe, in *dinstr) {
	switch in.op {
	case dInvoke, dSpawn:
		v.tierBump(f.m.callees[in.a].m)
	case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull:
		if in.a <= f.pc {
			v.tierBump(f.m)
		}
	case dLoad:
		if in.fuse >= 0 {
			if fi := &f.m.fused[in.fuse]; (fi.op == fLLCmpBr || fi.op == fLCCmpBr) && fi.d <= f.pc {
				v.tierBump(f.m)
			}
		}
	}
}

// tierBump heats a method and tiers it up at the threshold.
func (v *VM) tierBump(dm *dmethod) {
	if dm.tier != nil || dm.tierFailed {
		return
	}
	dm.hotness++
	if dm.hotness >= v.tierThreshold {
		v.tierUp(dm)
	}
}

// tierUp translates a hot method to closure-threaded code. A method whose
// translation is rejected is barred from retrying (hysteresis: the
// counter check above short-circuits on tierFailed forever after).
func (v *VM) tierUp(dm *dmethod) {
	cm := v.compileMethod(dm)
	if cm == nil {
		dm.tierFailed = true
		return
	}
	dm.tier = cm
	v.tierUps++
	if obs.Enabled() {
		obs.Instant("vm", "tier", "tier-up:"+dm.name)
		obs.Count("vm.tier.compiled_methods", 1)
	}
}

// forceDeopt abandons all compiled methods for the rest of the run
// (Config.TierForceDeoptAfter): execution permanently re-enters fused
// dispatch, the tier's deopt target, with identical semantics.
func (v *VM) forceDeopt() {
	v.tierOff = true
	v.tierDeopts++
	if obs.Enabled() {
		obs.Instant("vm", "tier", "forced-deopt")
	}
}

// ---------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------

// thunk is a deferred expression on the translation-time symbolic stack.
// w is the base-instruction weight attributed to the thunk (0 when the
// weight was charged eagerly, as for constants). isConst marks
// order-insensitive thunks that may stay deferred past other emitted
// operations; pure marks infallible, side-effect-free thunks that may be
// dropped or duplicated.
type thunk struct {
	ev      cval
	w       int32
	isConst bool
	canFail bool
	pure    bool
	isLocal bool // exactly "load local" (reads f.locals[local])
	local   int32
	cv      heap.Value // the constant, when isConst
}

// segBuilder accumulates one segment's compiled ops while simulating the
// operand stack symbolically.
type segBuilder struct {
	v    *VM
	ops  []cop
	wb   []int32
	wAcc int32
	sym  []thunk
}

// charge attributes base instructions to the running prefix without
// emitting an op (constants, nops, dead pure code — all infallible, so
// counting them eagerly matches the reference engine, which would have
// executed them before any later failure point).
func (sb *segBuilder) charge(w int32) { sb.wAcc += w }

// appendOp appends a compiled op covering w base instructions.
func (sb *segBuilder) appendOp(op cop, w int32) {
	sb.ops = append(sb.ops, op)
	sb.wb = append(sb.wb, sb.wAcc)
	sb.wAcc += w
}

// flush materializes the whole symbolic stack onto the real operand
// stack, in push order, as one compiled op.
func (sb *segBuilder) flush() {
	if len(sb.sym) == 0 {
		return
	}
	ths := sb.sym
	sb.sym = nil
	simple := true
	for i := range ths {
		if !ths[i].isLocal && !ths[i].isConst {
			simple = false
			break
		}
	}
	if simple {
		// Locals and constants push with no nested evaluation and no
		// error paths (the common shape under a call's argument pushes).
		srcs := append([]thunk(nil), ths...)
		var w int32
		for i := range srcs {
			w += srcs[i].w
		}
		sb.appendOp(func(t *fthread, f *fframe) error {
			for i := range srcs {
				if srcs[i].isLocal {
					f.push(f.locals[srcs[i].local])
				} else {
					f.push(srcs[i].cv)
				}
			}
			return nil
		}, w)
		return
	}
	if len(ths) == 1 {
		th := ths[0]
		sb.appendOp(func(t *fthread, f *fframe) error {
			val, err := th.ev(t, f)
			if err != nil {
				return err
			}
			f.push(val)
			return nil
		}, th.w)
		return
	}
	offs := make([]int32, len(ths))
	var w int32
	for i := range ths {
		offs[i] = w
		w += ths[i].w
	}
	v := sb.v
	sb.appendOp(func(t *fthread, f *fframe) error {
		for i := range ths {
			val, err := ths[i].ev(t, f)
			if err != nil {
				v.opEntered += offs[i]
				return err
			}
			f.push(val)
		}
		return nil
	}, w)
}

// emit appends a side-effecting op. Any deferred non-const thunks are
// materialized first so side effects keep program order.
func (sb *segBuilder) emit(op cop, w int32) {
	for _, th := range sb.sym {
		if !th.isConst {
			sb.flush()
			break
		}
	}
	sb.appendOp(op, w)
}

// push defers a value producer.
func (sb *segBuilder) push(th thunk) { sb.sym = append(sb.sym, th) }

// take removes the top k thunks for composition into a consumer. It
// refuses (materializing everything, so the caller must fall back to a
// stack-consuming op) when fewer than k thunks are deferred or when a
// deeper non-const thunk would be reordered past the consumer's side
// effect.
func (sb *segBuilder) take(k int) ([]thunk, bool) {
	if len(sb.sym) >= k {
		ok := true
		for _, th := range sb.sym[:len(sb.sym)-k] {
			if !th.isConst {
				ok = false
				break
			}
		}
		if ok {
			ths := append([]thunk(nil), sb.sym[len(sb.sym)-k:]...)
			sb.sym = sb.sym[:len(sb.sym)-k]
			return ths, true
		}
	}
	sb.flush()
	return nil, false
}

// isTermOp reports the decoded ops that end a segment.
func isTermOp(op dop) bool {
	switch op {
	case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull, dInvoke, dSpawn, dReturn, dReturnValue, dTrap:
		return true
	}
	return false
}

// compileMethod translates one decoded method into its closure-threaded
// form, or nil when the method cannot be compiled (empty body).
func (v *VM) compileMethod(dm *dmethod) *cmethod {
	code := dm.code
	if len(code) == 0 {
		return nil
	}

	// Pass 1: segment leaders — entry, branch targets, and every pc after
	// a terminator (branch fallthroughs and call return points).
	leader := make([]bool, len(code)+1)
	leader[0] = true
	for pc := range code {
		switch code[pc].op {
		case dGoto, dIfTrue, dIfFalse, dIfNull, dIfNonNull:
			leader[code[pc].a] = true
			leader[pc+1] = true
		case dInvoke, dSpawn, dReturn, dReturnValue, dTrap:
			leader[pc+1] = true
		}
	}

	cm := &cmethod{
		segOf: make([]int32, len(code)),
		eSeg:  make([]int32, len(code)),
		eOp:   make([]int32, len(code)),
		eW:    make([]int32, len(code)),
	}
	for pc := range cm.segOf {
		cm.segOf[pc] = -1
		cm.eSeg[pc] = -1
	}
	// Segment boundaries first (terminator closures need segOf for their
	// resolved branch-target indices), bodies second.
	var segBounds []segBlock
	for pc := 0; pc < len(code); {
		head := pc
		term := -1
		for pc < len(code) {
			if isTermOp(code[pc].op) {
				term = pc
				pc++
				break
			}
			pc++
			if pc < len(code) && leader[pc] {
				break
			}
		}
		cm.segOf[head] = int32(len(segBounds))
		segBounds = append(segBounds, segBlock{head: head, end: pc, term: term})
	}

	cm.segs = make([]cseg, len(segBounds))
	for i, sb := range segBounds {
		v.compileSeg(dm, cm, int32(i), &cm.segs[i], segBounds, sb.head, sb.end, sb.term)
	}
	return cm
}

// segBlock is one basic block's bounds (term == -1: fallthrough).
type segBlock struct{ head, end, term int }

// segIdxAt resolves a pc to its segment index for terminator targets
// (termToDriver when pc is past the end of the method).
func (cm *cmethod) segIdxAt(pc int) int32 {
	if pc >= len(cm.segOf) {
		return termToDriver
	}
	return cm.segOf[pc]
}

// compileSeg fills one segment: the ops region [head, termPC) translated
// with symbolic-stack composition, then the terminator (explicit at
// termPC, or the implicit fallthrough). Every instruction boundary whose
// symbolic stack is empty is recorded as a mid-segment entry point: at
// those pcs the interpreter's operand stack holds exactly what the
// remaining compiled ops expect (deferred-but-unconsumed thunks are the
// only translation state, and there are none), so a quantum rotation
// that interrupted the segment can resume compiled execution there. A
// composed terminator condition is the one exception — its operand is
// deferred across the terminator, so no entry is recorded at it.
func (v *VM) compileSeg(dm *dmethod, cm *cmethod, si int32, seg *cseg, blocks []segBlock, head, end, termPC int) {
	code := dm.code
	seg.pc = int32(head)
	sb := &segBuilder{v: v}
	// entry records a resumable entry point at pc: the next op to run is
	// the one about to be appended, with sb.wAcc base instructions
	// already covered. Duplicate re-records at the same state collapse.
	entry := func(pc int) {
		op, w := int32(len(sb.ops)), sb.wAcc
		if n := len(seg.entries); n > 0 && seg.entries[n-1].op == op && seg.entries[n-1].w == w {
			return
		}
		cm.setEntry(int32(pc), si, op, w)
		seg.entries = append(seg.entries, segEntry{op: op, w: w, pc: int32(pc)})
	}

	// Superblock growth: a block ending in an unconditional goto or a
	// plain fallthrough keeps translating at its successor (tail
	// duplication — the successor also keeps its own segment for other
	// predecessors), so loop bodies and join chains run as one segment
	// instead of bouncing through the driver per block. visited stops
	// cycles; the cap bounds the duplication.
	const mergeCap = 64
	visited := map[int]bool{head: true}

	var termW int32
	done := false
	for !done {
		opsEnd := end
		if termPC >= 0 {
			opsEnd = termPC
		}
		for pc := head; pc < opsEnd; {
			if in := &code[pc]; in.fuse >= 0 {
				fi := &dm.fused[in.fuse]
				if fi.op == fLLCmpBr || fi.op == fLCCmpBr {
					// A fused compare-and-branch whose branch is this
					// segment's terminator becomes the terminator itself
					// (it reads locals only, so post-flush it is a valid
					// entry point).
					if termPC >= 0 && pc+int(fi.n)-1 == termPC {
						done = true
						sb.flush()
						entry(pc)
						seg.term = v.compileFusedBranch(cm, fi, pc)
						termW = int32(fi.n)
						break
					}
				} else if pc+int(fi.n) <= opsEnd {
					if len(sb.sym) == 0 {
						entry(pc)
					}
					if v.addFused(sb, dm, fi, pc) {
						pc += int(fi.n)
						continue
					}
				}
			}
			if len(sb.sym) == 0 {
				entry(pc)
			}
			v.addPlain(sb, dm, pc)
			pc++
		}
		if done {
			break
		}
		if termPC >= 0 {
			if code[termPC].op == dGoto {
				if tgt := int(code[termPC].a); int(sb.wAcc) < mergeCap && tgt < len(code) && !visited[tgt] {
					// The goto disappears into an eager charge (it is
					// infallible and has no effect beyond control flow);
					// deferred thunks stay deferred across it.
					if len(sb.sym) == 0 {
						entry(termPC)
					}
					sb.charge(1)
					visited[tgt] = true
					nb := blocks[cm.segOf[tgt]]
					head, end, termPC = nb.head, nb.end, nb.term
					continue
				}
			}
			if term, w, ok := v.composedTerm(sb, dm, cm, termPC); ok {
				seg.term, termW = term, w
			} else {
				sb.flush()
				entry(termPC)
				seg.term = v.compileTerm(dm, cm, termPC)
				termW = 1
			}
		} else {
			if int(sb.wAcc) < mergeCap && end < len(code) && !visited[end] {
				// Fallthrough merge: no instruction executes at the
				// boundary, translation just continues at the join.
				visited[end] = true
				nb := blocks[cm.segOf[end]]
				head, end, termPC = nb.head, nb.end, nb.term
				continue
			}
			// Fallthrough into the next leader (weight 0: no instruction
			// executes at the boundary).
			sb.flush()
			next := cm.segIdxAt(end)
			endPC := int32(end)
			seg.term = func(t *fthread, f *fframe) (int32, error) {
				f.pc = endPC
				return next, nil
			}
		}
		break
	}
	seg.ops = sb.ops
	seg.wbefore = sb.wb
	seg.termW = termW
	seg.n = sb.wAcc + termW
}

// ---------------------------------------------------------------------
// Producers (thunks)
// ---------------------------------------------------------------------

func constThunk(val heap.Value) thunk {
	return thunk{
		ev:      func(t *fthread, f *fframe) (heap.Value, error) { return val, nil },
		isConst: true, pure: true, cv: val,
	}
}

func loadThunk(a int32) thunk {
	return thunk{
		ev:      func(t *fthread, f *fframe) (heap.Value, error) { return f.locals[a], nil },
		w:       1,
		pure:    true,
		isLocal: true, local: a,
	}
}

func getStaticThunk(dm *dmethod, in *dinstr) thunk {
	slot := dm.statics[in.a]
	isRef := in.op == dGetStaticRef
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			val := *slot
			if isRef {
				val.IsRef = true
			}
			return val, nil
		},
		w: 1, pure: true,
	}
}

func (v *VM) getFieldThunk(obj thunk, fr *fieldRec, isRef bool, pc int32) thunk {
	w := obj.w + 1
	if obj.isLocal {
		a := obj.local
		return thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				objv := f.locals[a]
				if objv.R == heap.Null {
					return objv, v.cerr(f, pc, w, "null pointer dereference reading %s", fr.ref)
				}
				o := v.heap.Get(objv.R)
				if o == nil {
					return objv, v.cerr(f, pc, w, "heap: null dereference reading %s", fr.ref)
				}
				val := o.Fields[fr.idx]
				if isRef {
					val.IsRef = true
				}
				return val, nil
			},
			w: w, canFail: true,
		}
	}
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			objv, err := obj.ev(t, f)
			if err != nil {
				return objv, err
			}
			if objv.R == heap.Null {
				return objv, v.cerr(f, pc, w, "null pointer dereference reading %s", fr.ref)
			}
			o := v.heap.Get(objv.R)
			if o == nil {
				return objv, v.cerr(f, pc, w, "heap: null dereference reading %s", fr.ref)
			}
			val := o.Fields[fr.idx]
			if isRef {
				val.IsRef = true
			}
			return val, nil
		},
		w: w, canFail: true,
	}
}

func (v *VM) aaloadThunk(arr, idx thunk, isRef bool, pc int32) thunk {
	w := arr.w + idx.w + 1
	aw := arr.w
	if arr.isLocal && (idx.isLocal || idx.isConst) {
		ai := arr.local
		ii, ic, idxLocal := idx.local, idx.cv, idx.isLocal
		return thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				arrv := f.locals[ai]
				idxv := ic
				if idxLocal {
					idxv = f.locals[ii]
				}
				if arrv.R == heap.Null {
					return arrv, v.cerr(f, pc, w, "null pointer dereference in array load")
				}
				o := v.heap.Get(arrv.R)
				if o == nil {
					return arrv, v.cerr(f, pc, w, "heap: null array dereference")
				}
				if idxv.I < 0 || idxv.I >= int64(len(o.Elems)) {
					return arrv, v.cerr(f, pc, w, "heap: index %d out of bounds [0,%d)", idxv.I, len(o.Elems))
				}
				val := o.Elems[idxv.I]
				if isRef {
					val.IsRef = true
				}
				return val, nil
			},
			w: w, canFail: true,
		}
	}
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			arrv, err := arr.ev(t, f)
			if err != nil {
				return arrv, err
			}
			idxv, err := idx.ev(t, f)
			if err != nil {
				v.opEntered += aw
				return idxv, err
			}
			if arrv.R == heap.Null {
				return arrv, v.cerr(f, pc, w, "null pointer dereference in array load")
			}
			o := v.heap.Get(arrv.R)
			if o == nil {
				return arrv, v.cerr(f, pc, w, "heap: null array dereference")
			}
			if idxv.I < 0 || idxv.I >= int64(len(o.Elems)) {
				return arrv, v.cerr(f, pc, w, "heap: index %d out of bounds [0,%d)", idxv.I, len(o.Elems))
			}
			val := o.Elems[idxv.I]
			if isRef {
				val.IsRef = true
			}
			return val, nil
		},
		w: w, canFail: true,
	}
}

func (v *VM) arrayLengthThunk(arr thunk, pc int32) thunk {
	w := arr.w + 1
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			arrv, err := arr.ev(t, f)
			if err != nil {
				return arrv, err
			}
			if arrv.R == heap.Null {
				return arrv, v.cerr(f, pc, w, "null pointer dereference in arraylength")
			}
			o := v.heap.Get(arrv.R)
			if o == nil {
				return arrv, v.cerr(f, pc, w, "heap: null array dereference")
			}
			return heap.IntVal(int64(len(o.Elems))), nil
		},
		w: w, canFail: true,
	}
}

func (v *VM) newInstanceThunk(dm *dmethod, al *allocRec, pc int32) thunk {
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			return v.allocated(v.heap.AllocObjectN(al.class, al.nFields), dm, pc, t.id), nil
		},
		w: 1,
	}
}

func (v *VM) newArrayThunk(dm *dmethod, n thunk, isRef bool, pc int32) thunk {
	w := n.w + 1
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			nv, err := n.ev(t, f)
			if err != nil {
				return nv, err
			}
			if nv.I < 0 {
				return nv, v.cerr(f, pc, w, "negative array size %d", nv.I)
			}
			r, aerr := v.heap.AllocArray(isRef, nv.I)
			if aerr != nil {
				return nv, v.cerr(f, pc, w, "%v", aerr)
			}
			return v.allocated(r, dm, pc, t.id), nil
		},
		w: w, canFail: true,
	}
}

// arithThunk composes a binary integer operation (div/rem are the only
// fallible ones).
func (v *VM) arithThunk(op dop, a, b thunk, pc int32) thunk {
	w := a.w + b.w + 1
	aw := a.w
	var eval2 func(t *fthread, f *fframe) (int64, int64, error)
	switch {
	case a.isLocal && b.isLocal:
		ai, bi := a.local, b.local
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			return f.locals[ai].I, f.locals[bi].I, nil
		}
	case a.isLocal && b.isConst:
		ai, bc := a.local, b.cv.I
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			return f.locals[ai].I, bc, nil
		}
	case a.isConst && b.isLocal:
		ac, bi := a.cv.I, b.local
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			return ac, f.locals[bi].I, nil
		}
	case a.isLocal:
		// A local is a pure read: deferring it past b's evaluation is
		// unobservable, and an error in b still charges a's weight.
		ai, evB := a.local, b.ev
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			bv, err := evB(t, f)
			if err != nil {
				v.opEntered += aw
				return 0, 0, err
			}
			return f.locals[ai].I, bv.I, nil
		}
	case b.isConst:
		evA, bc := a.ev, b.cv.I
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(t, f)
			return av.I, bc, err
		}
	case b.isLocal:
		evA, bi := a.ev, b.local
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(t, f)
			return av.I, f.locals[bi].I, err
		}
	default:
		evA, evB := a.ev, b.ev
		eval2 = func(t *fthread, f *fframe) (int64, int64, error) {
			av, err := evA(t, f)
			if err != nil {
				return 0, 0, err
			}
			bv, err := evB(t, f)
			if err != nil {
				v.opEntered += aw
				return 0, 0, err
			}
			return av.I, bv.I, nil
		}
	}
	var ev cval
	canFail := a.canFail || b.canFail
	switch op {
	case dAdd:
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(x + y), err
		}
	case dSub:
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(x - y), err
		}
	case dMul:
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(x * y), err
		}
	case dAnd:
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(x & y), err
		}
	case dOr:
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(x | y), err
		}
	case dDiv, dRem:
		canFail = true
		isDiv := op == dDiv
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			if err != nil {
				return heap.Value{}, err
			}
			if y == 0 {
				return heap.Value{}, v.cerr(f, pc, w, "division by zero")
			}
			if isDiv {
				return heap.IntVal(x / y), nil
			}
			return heap.IntVal(x % y), nil
		}
	default: // comparisons
		cmp := op
		ev = func(t *fthread, f *fframe) (heap.Value, error) {
			x, y, err := eval2(t, f)
			return heap.IntVal(b2i(intCmp(cmp, x, y))), err
		}
	}
	return thunk{ev: ev, w: w, canFail: canFail, pure: a.pure && b.pure && !canFail}
}

func (v *VM) refCmpThunk(eq bool, a, b thunk) thunk {
	if a.isLocal && b.isLocal {
		ai, bi := a.local, b.local
		return thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				return heap.IntVal(b2i((f.locals[ai].R == f.locals[bi].R) == eq)), nil
			},
			w: a.w + b.w + 1, pure: true,
		}
	}
	aw := a.w
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			av, err := a.ev(t, f)
			if err != nil {
				return av, err
			}
			bv, err := b.ev(t, f)
			if err != nil {
				v.opEntered += aw
				return bv, err
			}
			return heap.IntVal(b2i((av.R == bv.R) == eq)), nil
		},
		w: a.w + b.w + 1, canFail: a.canFail || b.canFail, pure: a.pure && b.pure,
	}
}

func unaryThunk(op dop, x thunk) thunk {
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			xv, err := x.ev(t, f)
			if err != nil {
				return xv, err
			}
			if op == dNeg {
				return heap.IntVal(-xv.I), nil
			}
			return heap.IntVal(1 - xv.I), nil
		},
		w: x.w + 1, canFail: x.canFail, pure: x.pure,
	}
}

// popThunk reads an operand from the real stack at run time (used by the
// stack-consuming fallbacks when nothing is deferred).
func popThunk() thunk {
	return thunk{ev: func(t *fthread, f *fframe) (heap.Value, error) { return f.pop(), nil }, pure: true}
}

// ---------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------

// operand pops one deferred thunk or falls back to a runtime stack pop.
// Single-operand consumers can always compose; take() handles the
// multi-operand ordering constraints.
func (sb *segBuilder) operand() thunk {
	if ths, ok := sb.take(1); ok {
		return ths[0]
	}
	return popThunk()
}

func (v *VM) storeOp(a int32, val thunk) cop {
	if val.isLocal {
		b := val.local
		return func(t *fthread, f *fframe) error {
			f.locals[a] = f.locals[b]
			return nil
		}
	}
	return func(t *fthread, f *fframe) error {
		valv, err := val.ev(t, f)
		if err != nil {
			return err
		}
		f.locals[a] = valv
		return nil
	}
}

func (v *VM) printOp(val thunk) cop {
	return func(t *fthread, f *fframe) error {
		valv, err := val.ev(t, f)
		if err != nil {
			return err
		}
		v.output = append(v.output, valv.I)
		return nil
	}
}

// discardOp evaluates a fallible/impure deferred thunk for its effects
// (dPop of something that can fail must still fail there).
func discardOp(val thunk) cop {
	return func(t *fthread, f *fframe) error {
		_, err := val.ev(t, f)
		return err
	}
}

func (v *VM) putFieldOp(obj, val thunk, fr *fieldRec, site *siteRec, pc int32) cop {
	w := obj.w + val.w + 1
	ow := obj.w
	if obj.isLocal && (val.isLocal || val.isConst) {
		oi := obj.local
		vi, vc, valLocal := val.local, val.cv, val.isLocal
		return func(t *fthread, f *fframe) error {
			objv := f.locals[oi]
			valv := vc
			if valLocal {
				valv = f.locals[vi]
			}
			if objv.R == heap.Null {
				return v.cerr(f, pc, w, "null pointer dereference writing %s", fr.ref)
			}
			o := v.heap.Get(objv.R)
			if o == nil {
				return v.cerr(f, pc, w, "heap: null dereference writing %s", fr.ref)
			}
			old := o.Fields[fr.idx]
			o.Fields[fr.idx] = valv
			if site != nil {
				return v.charged(v.storeBarrier(site, t.id, old.R, valv.R, objv.R), w)
			}
			return nil
		}
	}
	if obj.isLocal {
		oi := obj.local
		evV := val.ev
		return func(t *fthread, f *fframe) error {
			valv, err := evV(t, f)
			if err != nil {
				v.opEntered += ow
				return err
			}
			objv := f.locals[oi]
			if objv.R == heap.Null {
				return v.cerr(f, pc, w, "null pointer dereference writing %s", fr.ref)
			}
			o := v.heap.Get(objv.R)
			if o == nil {
				return v.cerr(f, pc, w, "heap: null dereference writing %s", fr.ref)
			}
			old := o.Fields[fr.idx]
			o.Fields[fr.idx] = valv
			if site != nil {
				return v.charged(v.storeBarrier(site, t.id, old.R, valv.R, objv.R), w)
			}
			return nil
		}
	}
	return func(t *fthread, f *fframe) error {
		objv, err := obj.ev(t, f)
		if err != nil {
			return err
		}
		valv, err := val.ev(t, f)
		if err != nil {
			v.opEntered += ow
			return err
		}
		if objv.R == heap.Null {
			return v.cerr(f, pc, w, "null pointer dereference writing %s", fr.ref)
		}
		o := v.heap.Get(objv.R)
		if o == nil {
			return v.cerr(f, pc, w, "heap: null dereference writing %s", fr.ref)
		}
		old := o.Fields[fr.idx]
		o.Fields[fr.idx] = valv
		if site != nil {
			return v.charged(v.storeBarrier(site, t.id, old.R, valv.R, objv.R), w)
		}
		return nil
	}
}

func (v *VM) putStaticOp(dm *dmethod, in *dinstr, val thunk) cop {
	slot := dm.statics[in.a]
	isRef := in.op == dPutStaticRef
	return func(t *fthread, f *fframe) error {
		valv, err := val.ev(t, f)
		if err != nil {
			return err
		}
		old := *slot
		*slot = valv
		if isRef {
			v.staticStore(old.R, valv.R)
		}
		return nil
	}
}

func (v *VM) arrayStoreOp(arr, idx, val thunk, site *siteRec, pc int32) cop {
	w := arr.w + idx.w + val.w + 1
	aw, iw := arr.w, idx.w
	return func(t *fthread, f *fframe) error {
		arrv, err := arr.ev(t, f)
		if err != nil {
			return err
		}
		idxv, err := idx.ev(t, f)
		if err != nil {
			v.opEntered += aw
			return err
		}
		valv, err := val.ev(t, f)
		if err != nil {
			v.opEntered += aw + iw
			return err
		}
		if arrv.R == heap.Null {
			return v.cerr(f, pc, w, "null pointer dereference in array store")
		}
		o := v.heap.Get(arrv.R)
		if o == nil {
			return v.cerr(f, pc, w, "heap: null array dereference")
		}
		if idxv.I < 0 || idxv.I >= int64(len(o.Elems)) {
			return v.cerr(f, pc, w, "heap: index %d out of bounds [0,%d)", idxv.I, len(o.Elems))
		}
		old := o.Elems[idxv.I]
		o.Elems[idxv.I] = valv
		if site != nil {
			return v.charged(v.storeBarrier(site, t.id, old.R, valv.R, arrv.R), w)
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// Per-instruction translation
// ---------------------------------------------------------------------

// addPlain translates one plain decoded instruction into the builder:
// producers defer as thunks, consumers compose or fall back to
// stack-consuming ops, stack shuffles materialize as needed.
func (v *VM) addPlain(sb *segBuilder, dm *dmethod, pc int) {
	in := &dm.code[pc]
	pcc := int32(pc)
	switch in.op {
	case dNop:
		sb.charge(1)
	case dConst:
		sb.push(constThunk(heap.IntVal(in.imm)))
		sb.charge(1)
	case dConstNull:
		sb.push(constThunk(heap.NullVal()))
		sb.charge(1)
	case dLoad:
		sb.push(loadThunk(in.a))
	case dGetStaticRef, dGetStaticInt:
		sb.push(getStaticThunk(dm, in))
	case dGetFieldRef, dGetFieldInt:
		sb.push(v.getFieldThunk(sb.operand(), &dm.fields[in.a], in.op == dGetFieldRef, pcc))
	case dAALoad, dIALoad:
		if ths, ok := sb.take(2); ok {
			sb.push(v.aaloadThunk(ths[0], ths[1], in.op == dAALoad, pcc))
		} else {
			idx := popThunk()
			arr := popThunk()
			// Runtime pops run in pop order (idx first), so the thunk
			// evaluation order inside aaloadThunk must see arr first:
			// wrap to pop both up front.
			sb.push(v.stackAALoadThunk(in.op == dAALoad, pcc))
			_ = idx
			_ = arr
		}
	case dArrayLength:
		sb.push(v.arrayLengthThunk(sb.operand(), pcc))
	case dNewInstance:
		sb.push(v.newInstanceThunk(dm, &dm.allocs[in.a], pcc))
	case dNewArrayRef, dNewArrayInt:
		sb.push(v.newArrayThunk(dm, sb.operand(), in.op == dNewArrayRef, pcc))
	case dAdd, dSub, dMul, dDiv, dRem, dAnd, dOr,
		dCmpEQ, dCmpNE, dCmpLT, dCmpLE, dCmpGT, dCmpGE:
		if ths, ok := sb.take(2); ok {
			sb.push(v.arithThunk(in.op, ths[0], ths[1], pcc))
		} else {
			sb.push(v.stackArithThunk(in.op, pcc))
		}
	case dRefEQ, dRefNE:
		if ths, ok := sb.take(2); ok {
			sb.push(v.refCmpThunk(in.op == dRefEQ, ths[0], ths[1]))
		} else {
			sb.push(v.stackRefCmpThunk(in.op == dRefEQ))
		}
	case dNeg, dNot:
		sb.push(unaryThunk(in.op, sb.operand()))

	case dDup:
		if n := len(sb.sym); n > 0 && sb.sym[n-1].isConst {
			sb.push(sb.sym[n-1])
			sb.charge(1)
		} else {
			sb.flush()
			sb.appendOp(func(t *fthread, f *fframe) error {
				f.push(f.stack[f.sp-1])
				return nil
			}, 1)
		}
	case dPop:
		if n := len(sb.sym); n > 0 {
			th := sb.sym[n-1]
			sb.sym = sb.sym[:n-1]
			if th.pure {
				sb.charge(th.w + 1)
			} else {
				sb.emit(discardOp(th), th.w+1)
			}
		} else {
			sb.appendOp(func(t *fthread, f *fframe) error {
				f.sp--
				return nil
			}, 1)
		}

	case dStore:
		val := sb.operand()
		sb.emit(v.storeOp(in.a, val), val.w+1)
	case dPrint:
		val := sb.operand()
		sb.emit(v.printOp(val), val.w+1)
	case dPutFieldRef, dPutFieldInt:
		var site *siteRec
		if in.op == dPutFieldRef {
			site = &dm.sites[in.b]
		}
		if ths, ok := sb.take(2); ok {
			sb.emit(v.putFieldOp(ths[0], ths[1], &dm.fields[in.a], site, pcc), ths[0].w+ths[1].w+1)
		} else {
			sb.emit(v.stackPutFieldOp(&dm.fields[in.a], site, pcc), 1)
		}
	case dPutStaticRef, dPutStaticInt:
		val := sb.operand()
		sb.emit(v.putStaticOp(dm, in, val), val.w+1)
	case dAAStore, dIAStore:
		var site *siteRec
		if in.op == dAAStore {
			site = &dm.sites[in.b]
		}
		if ths, ok := sb.take(3); ok {
			sb.emit(v.arrayStoreOp(ths[0], ths[1], ths[2], site, pcc), ths[0].w+ths[1].w+ths[2].w+1)
		} else {
			sb.emit(v.stackArrayStoreOp(site, pcc), 1)
		}

	default:
		// Terminator ops never reach addPlain (compileSeg routes them to
		// the terminator builders); an unknown op would be a decode bug —
		// fail loudly at the instruction, like the reference engine.
		sb.emit(func(t *fthread, f *fframe) error {
			return v.cerr(f, pcc, 1, "compiled tier: unexpected opcode at pc %d", pcc)
		}, 1)
	}
}

// Stack-consuming fallbacks: operands come off the real operand stack at
// run time, in pop order, exactly like the reference interpreter.

func (v *VM) stackArithThunk(op dop, pc int32) thunk {
	canFail := op == dDiv || op == dRem
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			y, x := f.pop().I, f.pop().I
			switch op {
			case dAdd:
				return heap.IntVal(x + y), nil
			case dSub:
				return heap.IntVal(x - y), nil
			case dMul:
				return heap.IntVal(x * y), nil
			case dAnd:
				return heap.IntVal(x & y), nil
			case dOr:
				return heap.IntVal(x | y), nil
			case dDiv, dRem:
				if y == 0 {
					return heap.Value{}, v.cerr(f, pc, 1, "division by zero")
				}
				if op == dDiv {
					return heap.IntVal(x / y), nil
				}
				return heap.IntVal(x % y), nil
			default:
				return heap.IntVal(b2i(intCmp(op, x, y))), nil
			}
		},
		w: 1, canFail: canFail,
	}
}

func (v *VM) stackRefCmpThunk(eq bool) thunk {
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			y, x := f.pop().R, f.pop().R
			return heap.IntVal(b2i((x == y) == eq)), nil
		},
		w: 1, pure: true,
	}
}

func (v *VM) stackAALoadThunk(isRef bool, pc int32) thunk {
	return thunk{
		ev: func(t *fthread, f *fframe) (heap.Value, error) {
			idx := f.pop().I
			arr := f.pop()
			if arr.R == heap.Null {
				return arr, v.cerr(f, pc, 1, "null pointer dereference in array load")
			}
			o := v.heap.Get(arr.R)
			if o == nil {
				return arr, v.cerr(f, pc, 1, "heap: null array dereference")
			}
			if idx < 0 || idx >= int64(len(o.Elems)) {
				return arr, v.cerr(f, pc, 1, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
			}
			val := o.Elems[idx]
			if isRef {
				val.IsRef = true
			}
			return val, nil
		},
		w: 1, canFail: true,
	}
}

func (v *VM) stackPutFieldOp(fr *fieldRec, site *siteRec, pc int32) cop {
	return func(t *fthread, f *fframe) error {
		val := f.pop()
		obj := f.pop()
		if obj.R == heap.Null {
			return v.cerr(f, pc, 1, "null pointer dereference writing %s", fr.ref)
		}
		o := v.heap.Get(obj.R)
		if o == nil {
			return v.cerr(f, pc, 1, "heap: null dereference writing %s", fr.ref)
		}
		old := o.Fields[fr.idx]
		o.Fields[fr.idx] = val
		if site != nil {
			return v.charged(v.storeBarrier(site, t.id, old.R, val.R, obj.R), 1)
		}
		return nil
	}
}

func (v *VM) stackArrayStoreOp(site *siteRec, pc int32) cop {
	return func(t *fthread, f *fframe) error {
		val := f.pop()
		idx := f.pop().I
		arr := f.pop()
		if arr.R == heap.Null {
			return v.cerr(f, pc, 1, "null pointer dereference in array store")
		}
		o := v.heap.Get(arr.R)
		if o == nil {
			return v.cerr(f, pc, 1, "heap: null array dereference")
		}
		if idx < 0 || idx >= int64(len(o.Elems)) {
			return v.cerr(f, pc, 1, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
		}
		old := o.Elems[idx]
		o.Elems[idx] = val
		if site != nil {
			return v.charged(v.storeBarrier(site, t.id, old.R, val.R, arr.R), 1)
		}
		return nil
	}
}

// addFused translates one non-branch fused superinstruction, preserving
// execFused's error pcs and all-steps-credited-up-front accounting (fused
// patterns only fail at their final component). Returns false for forms
// the caller should fall back to plain per-instruction translation on.
func (v *VM) addFused(sb *segBuilder, dm *dmethod, fi *finstr, pc int) bool {
	pcc := int32(pc)
	n := int32(fi.n)
	switch fi.op {
	case fLGetFieldRef, fLGetFieldInt:
		a, fr, isRef := fi.a, &dm.fields[fi.b], fi.op == fLGetFieldRef
		sb.push(thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				obj := f.locals[a]
				if obj.R == heap.Null {
					return obj, v.cerr(f, pcc+1, n, "null pointer dereference reading %s", fr.ref)
				}
				o := v.heap.Get(obj.R)
				if o == nil {
					return obj, v.cerr(f, pcc+1, n, "heap: null dereference reading %s", fr.ref)
				}
				val := o.Fields[fr.idx]
				if isRef {
					val.IsRef = true
				}
				return val, nil
			},
			w: n, canFail: true,
		})
	case fLLAALoad, fLLIALoad:
		a, b, isRef := fi.a, fi.b, fi.op == fLLAALoad
		sb.push(thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				arr := f.locals[a]
				idx := f.locals[b].I
				if arr.R == heap.Null {
					return arr, v.cerr(f, pcc+2, n, "null pointer dereference in array load")
				}
				o := v.heap.Get(arr.R)
				if o == nil {
					return arr, v.cerr(f, pcc+2, n, "heap: null array dereference")
				}
				if idx < 0 || idx >= int64(len(o.Elems)) {
					return arr, v.cerr(f, pcc+2, n, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
				}
				val := o.Elems[idx]
				if isRef {
					val.IsRef = true
				}
				return val, nil
			},
			w: n, canFail: true,
		})
	case fLLArith:
		a, b, aop := fi.a, fi.b, dop(fi.c)
		sb.push(thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				return heap.IntVal(arith(aop, f.locals[a].I, f.locals[b].I)), nil
			},
			w: n, pure: true,
		})
	case fLCArith:
		a, aop, imm := fi.a, dop(fi.c), fi.imm
		sb.push(thunk{
			ev: func(t *fthread, f *fframe) (heap.Value, error) {
				return heap.IntVal(arith(aop, f.locals[a].I, imm)), nil
			},
			w: n, pure: true,
		})

	case fIncLocal:
		src, dst, aop, imm := fi.a, fi.b, dop(fi.c), fi.imm
		sb.emit(func(t *fthread, f *fframe) error {
			f.locals[dst] = heap.IntVal(arith(aop, f.locals[src].I, imm))
			return nil
		}, n)
	case fConstStore:
		dst, imm := fi.b, fi.imm
		sb.emit(func(t *fthread, f *fframe) error {
			f.locals[dst] = heap.IntVal(imm)
			return nil
		}, n)
	case fLLPutFieldRef, fLLPutFieldInt:
		a, b, fr := fi.a, fi.b, &dm.fields[fi.c]
		var site *siteRec
		if fi.op == fLLPutFieldRef {
			site = &dm.sites[fi.site]
		}
		sb.emit(func(t *fthread, f *fframe) error {
			obj := f.locals[a]
			val := f.locals[b]
			if obj.R == heap.Null {
				return v.cerr(f, pcc+2, n, "null pointer dereference writing %s", fr.ref)
			}
			o := v.heap.Get(obj.R)
			if o == nil {
				return v.cerr(f, pcc+2, n, "heap: null dereference writing %s", fr.ref)
			}
			old := o.Fields[fr.idx]
			o.Fields[fr.idx] = val
			if site != nil {
				return v.charged(v.storeBarrier(site, t.id, old.R, val.R, obj.R), n)
			}
			return nil
		}, n)
	case fLLLAAStore, fLLLIAStore:
		a, b, c := fi.a, fi.b, fi.c
		var site *siteRec
		if fi.op == fLLLAAStore {
			site = &dm.sites[fi.site]
		}
		sb.emit(func(t *fthread, f *fframe) error {
			arr := f.locals[a]
			idx := f.locals[b].I
			val := f.locals[c]
			if arr.R == heap.Null {
				return v.cerr(f, pcc+3, n, "null pointer dereference in array store")
			}
			o := v.heap.Get(arr.R)
			if o == nil {
				return v.cerr(f, pcc+3, n, "heap: null array dereference")
			}
			if idx < 0 || idx >= int64(len(o.Elems)) {
				return v.cerr(f, pcc+3, n, "heap: index %d out of bounds [0,%d)", idx, len(o.Elems))
			}
			old := o.Elems[idx]
			o.Elems[idx] = val
			if site != nil {
				return v.charged(v.storeBarrier(site, t.id, old.R, val.R, arr.R), n)
			}
			return nil
		}, n)
	default:
		return false
	}
	return true
}

// ---------------------------------------------------------------------
// Terminators
// ---------------------------------------------------------------------

// compileFusedBranch translates a fused compare-and-branch terminator
// with both edges resolved to segment indices.
func (v *VM) compileFusedBranch(cm *cmethod, fi *finstr, pc int) cterm {
	target := fi.d
	tsi := cm.segIdxAt(int(fi.d))
	fallPC := int32(pc + int(fi.n))
	fsi := cm.segIdxAt(pc + int(fi.n))
	wantTrue := fi.e != 0
	cmp := dop(fi.c)
	a := fi.a
	if fi.op == fLLCmpBr {
		b := fi.b
		return func(t *fthread, f *fframe) (int32, error) {
			if intCmp(cmp, f.locals[a].I, f.locals[b].I) == wantTrue {
				f.pc = target
				return tsi, nil
			}
			f.pc = fallPC
			return fsi, nil
		}
	}
	imm := fi.imm
	return func(t *fthread, f *fframe) (int32, error) {
		if intCmp(cmp, f.locals[a].I, imm) == wantTrue {
			f.pc = target
			return tsi, nil
		}
		f.pc = fallPC
		return fsi, nil
	}
}

// composedTerm tries to build the terminator at pc with a single
// infallible deferred condition/operand composed into it (a fallible
// thunk would make the terminator fail before its final base
// instruction, breaking the charge-whole-weight-then-run accounting).
// Returns false when the terminator must take the flush + stack-operand
// path instead.
func (v *VM) composedTerm(sb *segBuilder, dm *dmethod, cm *cmethod, pc int) (cterm, int32, bool) {
	in := &dm.code[pc]
	pcc := int32(pc)
	if in.op == dInvoke {
		// A call whose arguments are all still deferred writes them into
		// the callee frame directly — the push-then-pop round trip
		// through the caller's operand stack disappears. Argument order
		// and error charging follow the flush protocol (left to right,
		// prefix weights added on a later argument's failure).
		cr := &dm.callees[in.a]
		n := int(cr.m.numArgs)
		if len(sb.sym) > n {
			// Deeper deferred thunks belong to whatever consumes this
			// call's result (an outer call's earlier operands, usually):
			// materialize only those and keep the top n composed.
			deeper := sb.sym[:len(sb.sym)-n]
			args := append([]thunk(nil), sb.sym[len(sb.sym)-n:]...)
			sb.sym = deeper
			sb.flush()
			sb.sym = args
		}
		k := len(sb.sym)
		if n > 0 && n <= 8 && k > 0 && k <= n {
			// The top k args are deferred thunks; the bottom n-k (already
			// materialized, e.g. a nested call's return value) come off
			// the real stack. Stack operands were charged when pushed, so
			// the terminator's weight covers only the deferred ones.
			ths := append([]thunk(nil), sb.sym...)
			sb.sym = nil
			stackN := int32(n - k)
			offs := make([]int32, k)
			var w int32
			for i := range ths {
				offs[i] = w
				w += ths[i].w
			}
			w++
			threshold := v.tierThreshold
			isStatic := cr.m.static
			return func(t *fthread, f *fframe) (int32, error) {
				var buf [8]heap.Value
				for i := range ths {
					av, err := ths[i].ev(t, f)
					if err != nil {
						v.opEntered += offs[i]
						return termToDriver, err
					}
					buf[int(stackN)+i] = av
				}
				if stackN > 0 {
					f.sp -= stackN
					copy(buf[:stackN], f.stack[f.sp:f.sp+stackN])
				}
				callee := cr.m
				if callee.tier == nil && !callee.tierFailed {
					callee.hotness++
					if callee.hotness >= threshold {
						v.tierUp(callee)
					}
				}
				if !isStatic && buf[0].R == heap.Null {
					return termToDriver, v.cerr(f, pcc, w, "null receiver calling %s", cr.ref)
				}
				nf := callee.acquire()
				copy(nf.locals[:n], buf[:n])
				f.pc = pcc + 1
				t.frames = append(t.frames, nf)
				return termSwitchFrame, nil
			}, w, true
		}
		return nil, 0, false
	}
	if len(sb.sym) == 1 {
		th := sb.sym[0]
		w := th.w + 1
		switch in.op {
		case dIfTrue, dIfFalse, dIfNull, dIfNonNull:
			op := in.op
			target := in.a
			tsi := cm.segIdxAt(int(in.a))
			fsi := cm.segIdxAt(pc + 1)
			sb.sym = nil
			return func(t *fthread, f *fframe) (int32, error) {
				cond, err := th.ev(t, f)
				if err != nil {
					return termToDriver, err
				}
				var taken bool
				switch op {
				case dIfTrue:
					taken = cond.I != 0
				case dIfFalse:
					taken = cond.I == 0
				case dIfNull:
					taken = cond.R == heap.Null
				default:
					taken = cond.R != heap.Null
				}
				if taken {
					f.pc = target
					return tsi, nil
				}
				f.pc = pcc + 1
				return fsi, nil
			}, w, true
		case dReturnValue:
			sb.sym = nil
			return func(t *fthread, f *fframe) (int32, error) {
				rv, err := th.ev(t, f)
				if err != nil {
					return termToDriver, err
				}
				t.frames = t.frames[:len(t.frames)-1]
				f.m.release(f)
				if len(t.frames) > 0 {
					t.frames[len(t.frames)-1].push(rv)
				}
				return termSwitchFrame, nil
			}, w, true
		case dSpawn:
			cr := &dm.callees[in.a]
			nsi := cm.segIdxAt(pc + 1)
			sb.sym = nil
			return func(t *fthread, f *fframe) (int32, error) {
				recv, err := th.ev(t, f)
				if err != nil {
					return termToDriver, err
				}
				if recv.R == heap.Null {
					return termToDriver, v.cerr(f, pcc, w, "null receiver in spawn")
				}
				v.spawn(cr.m, recv)
				f.pc = pcc + 1
				return nsi, nil
			}, w, true
		}
	}
	return nil, 0, false
}

// compileTerm translates the explicit terminator instruction at pc with
// its operands on the real operand stack.
func (v *VM) compileTerm(dm *dmethod, cm *cmethod, pc int) cterm {
	in := &dm.code[pc]
	pcc := int32(pc)
	switch in.op {
	case dGoto:
		target := in.a
		tsi := cm.segIdxAt(int(in.a))
		return func(t *fthread, f *fframe) (int32, error) {
			f.pc = target
			return tsi, nil
		}
	case dIfTrue, dIfFalse, dIfNull, dIfNonNull:
		op := in.op
		target := in.a
		tsi := cm.segIdxAt(int(in.a))
		fsi := cm.segIdxAt(pc + 1)
		return func(t *fthread, f *fframe) (int32, error) {
			var taken bool
			switch op {
			case dIfTrue:
				taken = f.pop().I != 0
			case dIfFalse:
				taken = f.pop().I == 0
			case dIfNull:
				taken = f.pop().R == heap.Null
			default:
				taken = f.pop().R != heap.Null
			}
			if taken {
				f.pc = target
				return tsi, nil
			}
			f.pc = pcc + 1
			return fsi, nil
		}
	case dInvoke:
		cr := &dm.callees[in.a]
		threshold := v.tierThreshold
		return func(t *fthread, f *fframe) (int32, error) {
			callee := cr.m
			// Calls made from compiled code still heat their callee, so a
			// method whose only callers are compiled can itself tier up.
			if callee.tier == nil && !callee.tierFailed {
				callee.hotness++
				if callee.hotness >= threshold {
					v.tierUp(callee)
				}
			}
			nf := callee.acquire()
			n := int32(callee.numArgs)
			base := f.sp - n
			copy(nf.locals[:n], f.stack[base:f.sp])
			f.sp = base
			if !callee.static && nf.locals[0].R == heap.Null {
				callee.release(nf)
				return termToDriver, v.cerr(f, pcc, 1, "null receiver calling %s", cr.ref)
			}
			f.pc = pcc + 1
			t.frames = append(t.frames, nf)
			return termSwitchFrame, nil
		}
	case dSpawn:
		cr := &dm.callees[in.a]
		nsi := cm.segIdxAt(pc + 1)
		return func(t *fthread, f *fframe) (int32, error) {
			recv := f.pop()
			if recv.R == heap.Null {
				return termToDriver, v.cerr(f, pcc, 1, "null receiver in spawn")
			}
			v.spawn(cr.m, recv)
			f.pc = pcc + 1
			return nsi, nil
		}
	case dReturn:
		return func(t *fthread, f *fframe) (int32, error) {
			t.frames = t.frames[:len(t.frames)-1]
			f.m.release(f)
			return termSwitchFrame, nil
		}
	case dReturnValue:
		return func(t *fthread, f *fframe) (int32, error) {
			rv := f.pop()
			t.frames = t.frames[:len(t.frames)-1]
			f.m.release(f)
			if len(t.frames) > 0 {
				t.frames[len(t.frames)-1].push(rv)
			}
			return termSwitchFrame, nil
		}
	default: // dTrap
		return func(t *fthread, f *fframe) (int32, error) {
			return termToDriver, v.cerr(f, pcc, 1, "missing return value")
		}
	}
}
