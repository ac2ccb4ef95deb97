package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"satbelim/internal/intval"
)

// elemsField is the pseudo-field collapsing all elements of an array
// (paper §2.4: "we treat an object array as an object with a single field
// f_elems").
const elemsField = "$elems"

// sigKey addresses the abstract store σ: one (reference, field) pair.
type sigKey struct {
	ref   RefID
	field string
}

// state is the paper's program state tuple extended for arrays:
// ⟨ρ, σ, NL, stk, Len, NR⟩.
//
// The container components are copy-on-write: clone shares ρ, σ, Len and
// NR between the original and the copy, and the first mutation of a shared
// container (through the mutable* accessors) makes a private copy. The
// fixed point clones the entry state of a block on every visit but most
// visits touch only a few containers, so sharing removes the bulk of the
// per-edge cloning cost. Values, RefSets, IntVals and srcSets stored
// inside the containers are immutable, so container-level copies suffice.
type state struct {
	locals []Value
	stack  []Value
	nl     RefSet
	sigma  map[sigKey]Value
	length map[RefID]intval.IntVal
	nr     map[RefID]intval.Range
	// intTainted marks references whose integer fields a summarized
	// callee may have rewritten: integer lookups on them answer ⊤.
	intTainted RefSet

	// own* record which containers this state owns exclusively. A state
	// built by newState owns everything; clone leaves both sides owning
	// nothing (writes then copy first). The stack is never shared: push
	// reuses backing-array capacity, which would alias a sharer's tail.
	ownLocals bool
	ownSigma  bool
	ownLength bool
	ownNR     bool
}

func newState(numLocals int) *state {
	return &state{
		locals:    make([]Value, numLocals),
		sigma:     map[sigKey]Value{},
		length:    map[RefID]intval.IntVal{},
		nr:        map[RefID]intval.Range{},
		ownLocals: true, ownSigma: true, ownLength: true, ownNR: true,
	}
}

// clone returns a copy sharing every container except the stack; the
// original gives up ownership so that whichever side writes first copies.
func (s *state) clone() *state {
	s.ownLocals, s.ownSigma, s.ownLength, s.ownNR = false, false, false, false
	return &state{
		locals:     s.locals,
		stack:      append([]Value(nil), s.stack...),
		nl:         s.nl,
		intTainted: s.intTainted,
		sigma:      s.sigma,
		length:     s.length,
		nr:         s.nr,
	}
}

// mutableLocals returns the locals slice, privately copied if shared.
// Safe only for indexed writes (never append).
func (s *state) mutableLocals() []Value {
	if !s.ownLocals {
		s.locals = append([]Value(nil), s.locals...)
		s.ownLocals = true
	}
	return s.locals
}

// mutableSigma returns the σ map, privately copied if shared.
func (s *state) mutableSigma() map[sigKey]Value {
	if !s.ownSigma {
		m := make(map[sigKey]Value, len(s.sigma))
		for k, v := range s.sigma {
			m[k] = v
		}
		s.sigma = m
		s.ownSigma = true
	}
	return s.sigma
}

// mutableLength returns the Len map, privately copied if shared.
func (s *state) mutableLength() map[RefID]intval.IntVal {
	if !s.ownLength {
		m := make(map[RefID]intval.IntVal, len(s.length))
		for k, v := range s.length {
			m[k] = v
		}
		s.length = m
		s.ownLength = true
	}
	return s.length
}

// mutableNR returns the NR map, privately copied if shared.
func (s *state) mutableNR() map[RefID]intval.Range {
	if !s.ownNR {
		m := make(map[RefID]intval.Range, len(s.nr))
		for k, v := range s.nr {
			m[k] = v
		}
		s.nr = m
		s.ownNR = true
	}
	return s.nr
}

// clearSigmaRef removes every σ entry keyed by r, copying a shared map
// only when an entry actually exists.
func (s *state) clearSigmaRef(r RefID) {
	var stale []sigKey
	for k := range s.sigma {
		if k.ref == r {
			stale = append(stale, k)
		}
	}
	if len(stale) == 0 {
		return
	}
	sigma := s.mutableSigma()
	for _, k := range stale {
		delete(sigma, k)
	}
}

// delLength removes Len(r), copying a shared map only when present.
func (s *state) delLength(r RefID) {
	if _, ok := s.length[r]; ok {
		delete(s.mutableLength(), r)
	}
}

// delNR removes NR(r), copying a shared map only when present.
func (s *state) delNR(r RefID) {
	if _, ok := s.nr[r]; ok {
		delete(s.mutableNR(), r)
	}
}

func (s *state) push(v Value) { s.stack = append(s.stack, v) }

func (s *state) pop() Value {
	v := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return v
}

// lookup implements the paper's lookup(σ, r, NL, f): non-thread-local
// references yield {GlobalRef}; otherwise the σ entry, defaulting to null
// for reference fields (the allocator zeroed them) and 0 for integer
// fields. wantInt selects the integer default.
func (s *state) lookup(r RefID, field string, wantInt bool) Value {
	if s.nl.Has(r) {
		if wantInt {
			return TopInt()
		}
		return RefValue(SingletonRef(GlobalRefID))
	}
	if wantInt && s.intTainted.Has(r) {
		return TopInt()
	}
	if v, ok := s.sigma[sigKey{ref: r, field: field}]; ok {
		return v
	}
	if wantInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// fieldIsNull reports whether σ guarantees (r, field) is null: r is
// thread-local and its entry is the empty reference set (or absent, i.e.
// still zeroed).
func (s *state) fieldIsNull(r RefID, field string) bool {
	if s.nl.Has(r) {
		return false
	}
	v, ok := s.sigma[sigKey{ref: r, field: field}]
	if !ok {
		return true
	}
	return v.kind == vRefs && v.refs.IsEmpty()
}

// reachFrom returns rs plus every reference transitively reachable from rs
// via σ (the closure used by AllNonTL).
func (s *state) reachFrom(rs RefSet) RefSet {
	out := rs
	work := make([]RefID, 0, 8)
	rs.ForEach(func(r RefID) { work = append(work, r) })
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		for k, v := range s.sigma {
			if k.ref != r || v.kind != vRefs {
				continue
			}
			v.refs.ForEach(func(t RefID) {
				if !out.Has(t) {
					out = out.With(t)
					work = append(work, t)
				}
			})
		}
	}
	return out
}

// escape implements AllNonTL: NL is extended with rs and everything
// reachable from it, and null-or-same guarantees about the newly escaped
// references are dropped from every tracked value.
func (s *state) escape(rs RefSet) {
	if rs.IsEmpty() {
		return
	}
	closed := s.reachFrom(rs)
	if s.nl.Contains(closed) {
		return
	}
	s.nl = s.nl.Union(closed)
	s.dropSrcsForEscaped()
}

// escapeValue escapes a Value when it is a reference.
func (s *state) escapeValue(v Value) {
	if v.kind == vRefs {
		s.escape(v.refs)
	}
}

// escapeCond implements AllNonTLCond: when the target set intersects NL,
// the stored value (and its reachable closure) escapes.
func (s *state) escapeCond(targets RefSet, val Value) {
	if targets.Intersects(s.nl) {
		s.escapeValue(val)
	}
}

// mapSrcs rewrites the null-or-same guarantee set of every tracked value
// through f, copying shared containers only when a set actually changes.
func (s *state) mapSrcs(f func(*srcSet) *srcSet) {
	for i, v := range s.locals {
		if v.srcs == nil {
			continue
		}
		if ns := f(v.srcs); ns != v.srcs {
			s.mutableLocals()[i] = v.withSrcs(ns)
		}
	}
	for i, v := range s.stack {
		if v.srcs == nil {
			continue
		}
		if ns := f(v.srcs); ns != v.srcs {
			s.stack[i] = v.withSrcs(ns)
		}
	}
	for k, v := range s.sigma {
		if v.srcs == nil {
			continue
		}
		if ns := f(v.srcs); ns != v.srcs {
			s.mutableSigma()[k] = v.withSrcs(ns)
		}
	}
}

// dropSrcsForEscaped strips null-or-same guarantees that name escaped
// references, everywhere in the state.
func (s *state) dropSrcsForEscaped() {
	s.mapSrcs(func(set *srcSet) *srcSet { return set.dropRefs(s.nl) })
}

// dropSrcsForField strips null-or-same guarantees naming the given field,
// everywhere (a store to the field may invalidate them).
func (s *state) dropSrcsForField(field string) {
	s.mapSrcs(func(set *srcSet) *srcSet { return set.dropField(field) })
}

// dropAllSrcs strips every null-or-same guarantee (calls may write any
// field of any reachable object).
func (s *state) dropAllSrcs() {
	s.mapSrcs(func(*srcSet) *srcSet { return nil })
}

// substValue renames references in a value (the allocation-site renaming
// rngSubst of §2.4).
func substValue(v Value, from, to RefID) Value {
	if v.kind != vRefs || !v.refs.Has(from) {
		return v
	}
	v.refs = v.refs.Without(from).With(to)
	// srcs keyed by the renamed ref move with it.
	if v.srcs != nil {
		var keys []srcKey
		for _, k := range v.srcs.keys {
			if k.ref == from {
				k.ref = to
			}
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return srcKeyLess(keys[i], keys[j]) })
		v.srcs = &srcSet{keys: keys}
	}
	return v
}

// weakMergeValue is the weak-update join: reference sets union, integers
// stay only when equal (no stride context outside control-flow merges).
func weakMergeValue(a, b Value) Value {
	return mergeValue(a, b, nil)
}

// renameAlloc performs the newinstance/newarray renaming: every occurrence
// of the site's A reference becomes the B reference (rngSubst on ρ and
// stk, replS on NL, transfer on σ, and the corresponding moves in Len and
// NR), freeing the A name for the newly allocated object.
func (s *state) renameAlloc(a, b RefID) {
	if a == b {
		return // single-summary ablation: nothing to rename
	}
	for i, v := range s.locals {
		if nv := substValue(v, a, b); !nv.Equal(v) {
			s.mutableLocals()[i] = nv
		}
	}
	for i := range s.stack {
		s.stack[i] = substValue(s.stack[i], a, b)
	}
	if s.nl.Has(a) {
		s.nl = s.nl.Without(a).With(b)
	}
	if s.intTainted.Has(a) {
		s.intTainted = s.intTainted.Without(a).With(b)
	}
	// transfer(σ, R_A → R_B): entries under A merge weakly into B (B is a
	// summary), and values mentioning A are renamed.
	var moves []sigKey
	for k := range s.sigma {
		if k.ref == a {
			moves = append(moves, k)
		}
	}
	if len(moves) > 0 {
		sigma := s.mutableSigma()
		sort.Slice(moves, func(i, j int) bool { return srcKeyLess(srcKey(moves[i]), srcKey(moves[j])) })
		for _, k := range moves {
			v := sigma[k]
			delete(sigma, k)
			nk := sigKey{ref: b, field: k.field}
			v = substValue(v, a, b)
			if old, ok := sigma[nk]; ok {
				sigma[nk] = weakMergeValue(old, v)
			} else {
				// B had no entry: its default is null/zero, so the weak
				// merge is with that default.
				var def Value
				if v.kind == vInt {
					def = IntValue(intval.Const(0))
				} else {
					def = NullValue()
				}
				sigma[nk] = weakMergeValue(def, v)
			}
		}
	}
	for k, v := range s.sigma {
		if nv := substValue(v, a, b); !nv.Equal(v) {
			s.mutableSigma()[k] = nv
		}
	}
	// Len and NR move to the summary with weak semantics.
	if l, ok := s.length[a]; ok {
		length := s.mutableLength()
		delete(length, a)
		if lb, ok := length[b]; ok {
			if m := intval.Merge(l, lb, nil); !m.IsTop() {
				length[b] = m
			} else {
				delete(length, b)
			}
		} else {
			length[b] = l
		}
	}
	if r, ok := s.nr[a]; ok {
		nr := s.mutableNR()
		delete(nr, a)
		if rb, ok := nr[b]; ok {
			if m := intval.MergeRanges(r, rb, nil); !m.IsEmpty() {
				nr[b] = m
			} else {
				delete(nr, b)
			}
		} else if !r.IsEmpty() {
			nr[b] = r
		}
	}
}

// mergeStates merges incoming into cur, returning the merged state and
// whether it differs from cur. All integer components share one stride
// context (the essence of §3.5). namer supplies fresh variable unknowns;
// noStride disables their invention (ablation).
func mergeStates(cur, incoming *state, namer *intval.Namer, noStride bool) (*state, bool) {
	ctx := intval.NewMergeCtx(namer)
	ctx.Disabled = noStride

	out := newState(len(cur.locals))
	changed := false

	if len(cur.stack) != len(incoming.stack) {
		// Verified bytecode guarantees agreement; degrade to an empty
		// stack (convergent: changed only the first time).
		out.stack = nil
		changed = len(cur.stack) != 0
	} else {
		out.stack = make([]Value, len(cur.stack))
		for i := range cur.stack {
			out.stack[i] = mergeValue(cur.stack[i], incoming.stack[i], ctx)
			if !out.stack[i].Equal(cur.stack[i]) {
				changed = true
			}
		}
	}
	for i := range cur.locals {
		out.locals[i] = mergeValue(cur.locals[i], incoming.locals[i], ctx)
		if !out.locals[i].Equal(cur.locals[i]) {
			changed = true
		}
	}

	out.nl = cur.nl.Union(incoming.nl)
	if !out.nl.Equal(cur.nl) {
		changed = true
	}
	out.intTainted = cur.intTainted.Union(incoming.intTainted)
	if !out.intTainted.Equal(cur.intTainted) {
		changed = true
	}

	// The stride context names fresh variables in the order merges
	// consult it, so entries whose merge consults it (unequal integers)
	// merge in key order, after the rest of their map: map order would
	// make the names, and with them the fixed point's visit count,
	// differ from run to run.
	//
	// σ: union of keys; an absent entry denotes the allocation default
	// (null / 0), which is what lookup assumes.
	var strided []sigKey
	sig := func(k sigKey, a, b Value) {
		if a.kind == vInt && b.kind == vInt && !a.iv.Equal(b.iv) {
			strided = append(strided, k)
			return
		}
		m := mergeValue(a, b, ctx)
		out.sigma[k] = m
		// a is what cur held for k, explicitly or as the default.
		if !m.Equal(a) {
			changed = true
		}
	}
	for k, a := range cur.sigma {
		b, ok := incoming.sigma[k]
		if !ok {
			b = defaultFor(a)
		}
		sig(k, a, b)
	}
	for k, b := range incoming.sigma {
		if _, ok := cur.sigma[k]; !ok {
			sig(k, defaultFor(b), b)
		}
	}
	slices.SortFunc(strided, func(x, y sigKey) int {
		if srcKeyLess(srcKey(x), srcKey(y)) {
			return -1
		}
		return 1 // keys are distinct
	})
	for _, k := range strided {
		a, inCur := cur.sigma[k]
		b, inIncoming := incoming.sigma[k]
		if !inCur {
			a = defaultFor(b)
		} else if !inIncoming {
			b = defaultFor(a)
		}
		m := mergeValue(a, b, ctx)
		out.sigma[k] = m
		if !m.Equal(a) {
			changed = true
		}
	}

	// Len and NR: intersection of keys (an absent entry is "no
	// information", which absorbs).
	var refs []RefID
	mergeLen := func(r RefID) {
		l := cur.length[r]
		m := intval.Merge(l, incoming.length[r], ctx)
		if !m.IsTop() {
			out.length[r] = m
		}
		if !m.Equal(l) {
			changed = true
		}
	}
	for r, l := range cur.length {
		if l2, ok := incoming.length[r]; !ok {
			changed = true
		} else if l.Equal(l2) {
			mergeLen(r)
		} else {
			refs = append(refs, r)
		}
	}
	slices.Sort(refs)
	for _, r := range refs {
		mergeLen(r)
	}
	refs = refs[:0]
	mergeNR := func(r RefID) {
		rng := cur.nr[r]
		m := intval.MergeRanges(rng, incoming.nr[r], ctx)
		if !m.IsEmpty() {
			out.nr[r] = m
		}
		if !m.Equal(rng) {
			changed = true
		}
	}
	for r, rng := range cur.nr {
		if rng2, ok := incoming.nr[r]; !ok {
			changed = true
		} else if rng.Equal(rng2) {
			mergeNR(r)
		} else {
			refs = append(refs, r)
		}
	}
	slices.Sort(refs)
	for _, r := range refs {
		mergeNR(r)
	}
	return out, changed
}

// statesEqual reports structural equality of two states, treating absent
// σ entries as their allocation defaults and absent Len/NR entries as
// no-information.
func statesEqual(a, b *state) bool {
	if len(a.locals) != len(b.locals) || len(a.stack) != len(b.stack) {
		return false
	}
	for i := range a.locals {
		if !a.locals[i].Equal(b.locals[i]) {
			return false
		}
	}
	for i := range a.stack {
		if !a.stack[i].Equal(b.stack[i]) {
			return false
		}
	}
	if !a.nl.Equal(b.nl) {
		return false
	}
	if !a.intTainted.Equal(b.intTainted) {
		return false
	}
	for k, v := range a.sigma {
		w, ok := b.sigma[k]
		if !ok {
			w = defaultFor(v)
		}
		if !v.Equal(w) {
			return false
		}
	}
	for k, w := range b.sigma {
		if _, ok := a.sigma[k]; !ok && !w.Equal(defaultFor(w)) {
			return false
		}
	}
	if len(a.length) != len(b.length) || len(a.nr) != len(b.nr) {
		return false
	}
	for k, v := range a.length {
		w, ok := b.length[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	for k, v := range a.nr {
		w, ok := b.nr[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// defaultFor returns the allocation-time default matching a value's kind.
func defaultFor(v Value) Value {
	if v.kind == vInt {
		return IntValue(intval.Const(0))
	}
	return NullValue()
}

// String renders the state for debugging.
func (s *state) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "locals=%v stack=%v nl=%s\n", s.locals, s.stack, s.nl)
	var keys []sigKey
	for k := range s.sigma {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return srcKeyLess(srcKey(keys[i]), srcKey(keys[j])) })
	for _, k := range keys {
		fmt.Fprintf(&b, "  σ(r%d,%s)=%v\n", k.ref, k.field, s.sigma[k])
	}
	for r, l := range s.length {
		fmt.Fprintf(&b, "  Len(r%d)=%s\n", r, l)
	}
	for r, rng := range s.nr {
		fmt.Fprintf(&b, "  NR(r%d)=%s\n", r, rng)
	}
	return b.String()
}
