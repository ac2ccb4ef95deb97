// Package vm interprets bytecode programs over the heap, executing SATB
// (or card-marking) write barriers at reference stores and driving the
// concurrent collector in deterministic steps. Threads created by spawn
// are scheduled cooperatively (fixed round-robin quanta) so that every
// run — including the mutator/collector interleaving — is reproducible.
package vm

import (
	"context"
	"fmt"

	"satbelim/internal/bytecode"
	"satbelim/internal/gc"
	"satbelim/internal/heap"
	"satbelim/internal/num"
	"satbelim/internal/obs"
	"satbelim/internal/satb"
)

// GCKind selects the collector.
type GCKind int

const (
	// GCNone runs without a collector (barriers may still execute,
	// feeding a no-op logger).
	GCNone GCKind = iota
	// GCSATB runs the snapshot-at-the-beginning concurrent marker.
	GCSATB
	// GCIncremental runs the mostly-parallel incremental-update marker.
	GCIncremental
)

// Engine selects the execution engine. A run always executes on the
// engine its Config names: every engine starts from the same decode of
// the program, so a program that does not decode (possible only for
// unverified bytecode) makes Run return a *DecodeError on all of them.
type Engine int

const (
	// EngineFused (the default) runs the pre-decoded execution engine:
	// bytecode is translated at VM construction into a dense internal form
	// with resolved operands (field offsets, call targets, site records),
	// hot instruction sequences are fused into superinstructions, and
	// frames are pooled. Results are bit-identical to EngineSwitch.
	EngineFused Engine = iota
	// EngineSwitch is the reference interpreter: a giant switch over the
	// raw bytecode, kept as the differential-testing baseline. Of the
	// decoded program it uses only the call targets and the store-site
	// records, and so shares the store-barrier path with the other
	// engines.
	EngineSwitch
	// EngineCompiled is the tiered execution engine: methods start on
	// fused dispatch and, once their exec counter (entries + loop
	// back-edges) crosses Config.TierThreshold, are translated to
	// closure-threaded compiled code — an array of per-segment
	// continuations with branch targets resolved to segment indices,
	// fused superinstructions preserved, and elided stores compiled to
	// raw writes with no barrier-test residue. Scheduler-quantum and
	// step-budget checks happen only at segment boundaries (loop
	// back-edges, branches, calls); a segment that does not fit the
	// remaining quantum or budget deopts to fused dispatch for the tail,
	// so thread interleaving and results stay bit-identical to the other
	// engines, with or without the runtime elision oracle.
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineSwitch:
		return "switch"
	case EngineCompiled:
		return "compiled"
	}
	return "fused"
}

// ParseEngine parses an engine name ("fused", "switch", or "compiled").
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "fused", "":
		return EngineFused, nil
	case "switch":
		return EngineSwitch, nil
	case "compiled":
		return EngineCompiled, nil
	}
	return EngineFused, fmt.Errorf("unknown engine %q (want fused, switch, or compiled)", s)
}

// ParseGCKind parses a collector name ("none", "satb", or "inc"). All
// CLIs share it so the flag vocabulary cannot drift.
func ParseGCKind(s string) (GCKind, error) {
	switch s {
	case "none", "":
		return GCNone, nil
	case "satb":
		return GCSATB, nil
	case "inc":
		return GCIncremental, nil
	}
	return GCNone, fmt.Errorf("unknown gc %q (want none, satb, or inc)", s)
}

// Config controls one VM run.
type Config struct {
	Barrier satb.BarrierMode
	GC      GCKind
	// Engine selects the execution engine (default EngineFused).
	Engine Engine
	// TriggerEveryAllocs starts a marking cycle each time this many
	// allocations accumulate (0 = never).
	TriggerEveryAllocs int64
	// MarkStepBudget is the marking work granted per scheduler quantum.
	MarkStepBudget int
	// Quantum is the number of instructions one thread runs before the
	// scheduler rotates (and the marker steps).
	Quantum int
	// MaxSteps bounds total executed instructions (0 = default bound).
	MaxSteps int64
	// CheckInvariant records a snapshot at each mark start and verifies
	// the SATB reachability invariant at each mark end. Armed only for
	// snapshot-sound barrier flavors (see satb.BarrierSpec.SnapshotSound):
	// an insertion-only barrier keeps live objects reachable but does not
	// maintain the mark-start snapshot, so the check would reject correct
	// runs.
	CheckInvariant bool
	// ForceMarkingAlways keeps a marking cycle permanently active
	// (starting a new cycle as soon as one finishes).
	ForceMarkingAlways bool
	// CheckElisions enables the runtime elision-soundness oracle on any
	// engine, compiled code included: every elided reference store
	// asserts the analysis claim that justified the elision (overwritten
	// slot null / null-or-same, target object still thread-local). A
	// contradicted claim aborts the run with a structured
	// *SoundnessViolation instead of silently corrupting marking.
	CheckElisions bool
	// TierThreshold is the hot-method exec count (method entries + loop
	// back-edges observed on fused dispatch) at which EngineCompiled
	// translates a method to closure-threaded compiled code (0 = default
	// 64). Ignored by the other engines.
	TierThreshold int64
	// TierForceDeoptAfter, when > 0, abandons ALL compiled methods after
	// that many compiled-segment executions and permanently re-enters
	// fused dispatch (simulating tier invalidation). A deliberately
	// non-production knob for deopt testing and chaos runs; results stay
	// bit-identical because fused dispatch is the tier's deopt target.
	TierForceDeoptAfter int64
	// ForceRawElide bypasses the barrier flavor's soundness projection
	// and applies every analysis verdict as-is — deliberately unsound
	// under flavors whose spec rejects a verdict. A testing-only knob:
	// the per-flavor oracle violation tests use it to prove the oracle
	// catches cross-flavor elisions.
	ForceRawElide bool
}

// Result summarizes a run.
type Result struct {
	Output   []int64
	Steps    int64 // executed instructions (base cost units)
	Counters *satb.Counters
	// Cycles is the number of completed marking cycles.
	Cycles int
	// FinalPauseWork sums the final-pause work of all cycles.
	FinalPauseWork int
	// Allocated counts heap allocations.
	Allocated int64
	// Swept counts objects reclaimed.
	Swept int
	// ElisionChecks counts elided-store executions validated by the
	// soundness oracle (0 unless Config.CheckElisions was set).
	ElisionChecks int64
	// Engine names the configured execution engine that produced the
	// result ("fused", "switch", or "compiled"; a compiled run reports
	// "compiled" even when no method crossed the hot threshold — TierUps
	// says how many did). Informational only, never part of the semantics.
	Engine string
	// Flavor names the barrier flavor the run executed under
	// (satb.BarrierSpec.Name).
	Flavor string
	// TierUps counts methods translated to the compiled tier during this
	// run; TierDeopts counts fallbacks from compiled code to fused
	// dispatch (quantum-tail, step-budget, or forced deopts); TierSegExecs
	// counts compiled-segment dispatches. All zero unless EngineCompiled
	// was selected. Informational only — never part of the semantics, and
	// excluded from engine-parity comparisons (like Engine).
	TierUps      int
	TierDeopts   int64
	TierSegExecs int64
}

// TotalCost is the deterministic cost-model total: instructions executed
// plus barrier cost units (overflow-safe: saturates instead of wrapping).
func (r *Result) TotalCost() uint64 { return num.AddSat(num.U64(r.Steps), r.Counters.Cost) }

// RuntimeError is a VM execution failure with location.
type RuntimeError struct {
	Method string
	PC     int
	Line   int
	Msg    string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at %s pc %d (line %d): %s", e.Method, e.PC, e.Line, e.Msg)
}

type frame struct {
	m      *bytecode.Method
	d      *dmethod // m's decoded form (store-site records, call targets)
	pc     int
	locals []heap.Value
	stack  []heap.Value
}

type thread struct {
	id     int
	frames []*frame
	done   bool
	// span is the thread's observability lane span (inert when tracing
	// is disabled).
	span obs.Span
}

// VM is one interpreter instance.
type VM struct {
	prog     *bytecode.Program
	cfg      Config
	heap     *heap.Heap
	counters *satb.Counters
	marker   gc.Marker
	noplog   satb.NopLogger
	threads  []*thread
	output   []int64
	oracle   *oracle

	// spec is the resolved barrier-flavor descriptor for cfg.Barrier; all
	// engines consult it for costs, shading, and verdict projection.
	// checkInv is CheckInvariant gated on the flavor maintaining the
	// snapshot at all.
	spec     *satb.BarrierSpec
	checkInv bool

	// dprog is the pre-decoded program every engine runs from (nil when
	// the program could not be decoded; decodeErr then says why and Run
	// returns it); fthreads are the fused and compiled engines' threads.
	dprog     *dprogram
	decodeErr error
	fthreads  []*fthread

	steps          int64
	maxSteps       int64
	allocSinceGC   int64
	cycles         int
	finalPauseWork int
	swept          int

	// fusedExecs counts superinstruction dispatches (fused engine only);
	// cycleSpan is the open observability span of the current marking
	// cycle (inert when tracing is disabled). Plain counters, never
	// synchronized: the VM runs on one goroutine.
	fusedExecs int64
	cycleSpan  obs.Span

	// Compiled-tier state (EngineCompiled only). tierThreshold is the
	// resolved hot counter; tierOff pins execution to fused dispatch —
	// from the start on the fused engine, after a forced deopt on the
	// compiled one; the counters feed Result and the observability
	// registry.
	tierThreshold int64
	tierOff       bool
	tierUps       int
	tierDeopts    int64
	tierSegExecs  int64
	// opEntered is the error-path side channel for compiled-segment step
	// accounting: when a compiled op fails it records how many base
	// instructions were entered within that op, so the segment runner can
	// charge exactly what the reference interpreter would have counted.
	opEntered int32

	// ctx/cancel carry RunContext's cancellation; cancel is nil for the
	// plain Run path, so the scheduler loop pays one nil check per
	// quantum and nothing more.
	ctx    context.Context
	cancel <-chan struct{}
}

// New prepares a VM for the program.
func New(p *bytecode.Program, cfg Config) *VM {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.MarkStepBudget <= 0 {
		cfg.MarkStepBudget = 32
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.TierThreshold <= 0 {
		cfg.TierThreshold = DefaultTierThreshold
	}
	v := &VM{
		prog:          p,
		cfg:           cfg,
		heap:          heap.New(heap.NewLayout(p)),
		counters:      satb.NewCounters(),
		maxSteps:      cfg.MaxSteps,
		tierThreshold: cfg.TierThreshold,
		tierOff:       cfg.Engine != EngineCompiled,
		spec:          cfg.Barrier.Spec(),
	}
	v.checkInv = cfg.CheckInvariant && v.spec.SnapshotSound
	switch cfg.GC {
	case GCSATB:
		v.marker = gc.NewSATB(v.heap)
	case GCIncremental:
		v.marker = gc.NewInc(v.heap)
	}
	if cfg.CheckElisions {
		v.oracle = newOracle(v.heap, v.spec)
	}
	sp := obs.StartSpan("main", "pipeline", "decode")
	v.dprog, v.decodeErr = v.decode()
	sp.EndArgs(obs.KV{K: "ok", V: b2i(v.decodeErr == nil)})
	return v
}

// projectElide maps an instruction's analysis verdict through the barrier
// flavor's soundness predicate: verdicts the flavor cannot honor keep
// their barrier. Decode calls it once per site, so flavor soundness costs
// nothing at execution time.
func (v *VM) projectElide(in *bytecode.Instr) satb.ElideKind {
	k := elideKind(in)
	if v.cfg.ForceRawElide {
		return k
	}
	return v.spec.Project(k)
}

// storeBarrier is the store-barrier path of every reference field and
// array store in all three engines, compiled code included: the oracle's
// check of the site's elision claim (when armed), then the site's barrier
// under the run's flavor. A raw site only counts its execution — the
// compile-time elision proof paying off — and every other site runs the
// shared satb.BarrierSiteSpec, so cost, logging, shading and card
// accounting have one implementation. tid is the storing thread.
func (v *VM) storeBarrier(rec *siteRec, tid int, pre, newR, target heap.Ref) error {
	if v.oracle != nil {
		if err := v.oracle.checkStore(rec, tid, pre, newR, target); err != nil {
			return err
		}
	}
	st := rec.stats
	if st == nil {
		st = v.counters.Site(rec.key, rec.kind, rec.elide)
		rec.stats = st
	}
	if !rec.raw {
		v.counters.BarrierSiteSpec(v.spec, v.logger(), st, rec.elide, pre, newR, target)
		return nil
	}
	st.Execs++
	if pre == heap.Null {
		st.PreNull++
	}
	if pre == heap.Null || pre == newR {
		st.NullOrSame++
	}
	return nil
}

// allocated is the allocation hook of every engine: it counts the new
// object toward the GC trigger and records its site (dm at pc) and owning
// thread with the oracle. It returns the reference as a stack value.
func (v *VM) allocated(r heap.Ref, dm *dmethod, pc int32, tid int) heap.Value {
	v.allocSinceGC++
	if v.oracle != nil {
		v.oracle.noteAlloc(r, dm.name, pc, tid)
	}
	return heap.RefVal(r)
}

// publish is the publication hook of every engine: r, and everything it
// reaches, has become visible beyond its allocating thread (stored into
// a static or handed to a spawned thread).
func (v *VM) publish(r heap.Ref) {
	if v.oracle != nil {
		v.oracle.escape(r)
	}
}

// staticStore runs a reference putstatic's barrier. Statics are globally
// reachable, so the stored object is published first.
func (v *VM) staticStore(pre, newR heap.Ref) {
	v.publish(newR)
	v.counters.StaticBarrierSpec(v.spec, v.logger(), pre, newR)
}

// Heap exposes the heap (tests and tools).
func (v *VM) Heap() *heap.Heap { return v.heap }

// logger returns the barrier sink.
func (v *VM) logger() satb.Logger {
	if v.marker != nil {
		return v.marker
	}
	return &v.noplog
}

// RunContext executes main to completion (all threads), aborting with an
// error when ctx is cancelled or its deadline passes. Cancellation is
// observed at scheduler-quantum boundaries — the same points where the
// collector steps and threads rotate — so the abort latency is bounded by
// one quantum (default 64 instructions) per live thread and the hot
// per-instruction loops stay untouched. Both engines check at identical
// points and return identical error text, preserving engine parity.
func (v *VM) RunContext(ctx context.Context) (*Result, error) {
	if ctx != nil && ctx.Done() != nil {
		v.ctx = ctx
		v.cancel = ctx.Done()
	}
	return v.Run()
}

// Run executes main to completion (all threads).
func (v *VM) Run() (*Result, error) {
	sp := obs.StartSpan("vm", "vm", "run")
	res, err := v.run()
	if sp.Recording() {
		sp.EndArgs(obs.KV{K: "engine", S: v.cfg.Engine.String()},
			obs.KV{K: "steps", V: v.steps},
			obs.KV{K: "cycles", V: int64(v.cycles)})
		v.publishObs(err == nil)
	}
	return res, err
}

// run executes the program on the configured engine.
func (v *VM) run() (*Result, error) {
	if v.decodeErr != nil {
		return nil, v.decodeErr
	}
	main := v.dprog.main
	if main == nil {
		return nil, fmt.Errorf("vm: no main method %s", v.prog.Main)
	}
	if v.cfg.Engine == EngineSwitch {
		v.threads = []*thread{{frames: []*frame{newFrame(main)}, span: threadSpan(0)}}
		return v.schedule(func() int { return len(v.threads) },
			func(i int) bool { return v.threads[i].done },
			func(i int) error { return v.runQuantum(v.threads[i]) })
	}
	v.fthreads = []*fthread{{frames: []*fframe{main.acquire()}, span: threadSpan(0)}}
	return v.schedule(func() int { return len(v.fthreads) },
		func(i int) bool { return v.fthreads[i].done },
		func(i int) error { return v.runDecodedQuantum(v.fthreads[i]) })
}

// schedule is the scheduler loop all engines share: round-robin over the
// live threads (one spawned during a pass first runs in the next), one
// quantum each, a collector tick after every quantum, until no thread is
// live.
func (v *VM) schedule(threads func() int, done func(int) bool, quantum func(int) error) (*Result, error) {
	if v.cfg.ForceMarkingAlways && v.marker != nil {
		v.startCycle()
	}
	for ran := true; ran; {
		ran = false
		for i, n := 0, threads(); i < n; i++ {
			if done(i) {
				continue
			}
			if err := v.cancelled(); err != nil {
				return nil, err
			}
			if err := quantum(i); err != nil {
				return nil, err
			}
			v.gcTick()
			ran = true
		}
	}
	// Wind down any active cycle.
	if v.marker != nil && v.marker.MarkingActive() {
		v.finishCycle()
	}
	return v.result(), nil
}

// publishObs flushes the run's execution counters into the observability
// registry. Called once per run, only when tracing is enabled — the VM's
// hot loops carry no hooks at all, so the disabled path is untouched and
// the enabled path's overhead is O(sites), not O(instructions).
func (v *VM) publishObs(ok bool) {
	obs.Count("vm.runs", 1)
	obs.Count("vm.engine."+v.cfg.Engine.String(), 1)
	obs.Count("vm.steps", v.steps)
	obs.Count("vm.cycles", int64(v.cycles))
	obs.Count("vm.final_pause_work", int64(v.finalPauseWork))
	obs.Count("vm.allocated", v.heap.Allocated)
	obs.Count("vm.swept", int64(v.swept))
	obs.Count("vm.fused_execs", v.fusedExecs)
	if v.cfg.Engine == EngineCompiled {
		obs.Count("vm.tier.ups", int64(v.tierUps))
		obs.Count("vm.tier.deopts", v.tierDeopts)
		obs.Count("vm.tier.seg_execs", v.tierSegExecs)
	}
	if !ok {
		obs.Count("vm.failed_runs", 1)
	}
	if v.dprog != nil {
		recycles := int64(0)
		for _, m := range v.dprog.methods {
			recycles += m.recycled
		}
		obs.Count("vm.frame_pool.recycles", recycles)
	}
	if v.oracle != nil {
		obs.Count("vm.oracle.checks", v.oracle.checks)
	}
	obs.Count("vm.barrier.cost", int64(v.counters.Cost))
	obs.Count("vm.barrier.logged", int64(v.counters.Logged))
	obs.Count("vm.barrier.shaded", int64(v.counters.Shaded))
	obs.Count("vm.barrier.cards_dirtied", int64(v.counters.CardsDirtied))
	obs.Count("vm.barrier.static_execs", int64(v.counters.StaticExecs))
	// Per-site barrier hit/elide counts, keyed by method and pc so every
	// compiled store site's dynamic behaviour is inspectable.
	for _, s := range v.counters.Sites() {
		sum := s.Execs
		elided := uint64(0)
		if s.Elide != satb.ElideNone {
			elided = s.Execs
		}
		obs.Count(fmt.Sprintf("vm.site.%s.%d.execs", s.Key.Method, s.Key.PC), int64(sum))
		if elided > 0 {
			obs.Count(fmt.Sprintf("vm.site.%s.%d.elided", s.Key.Method, s.Key.PC), int64(elided))
		}
	}
	sum := v.counters.Summarize()
	obs.Count("vm.barrier.execs", int64(sum.TotalExecs))
	obs.Count("vm.barrier.elided_execs", int64(sum.ElidedExecs))
	obs.Count("vm.barrier.null_or_same_execs", int64(sum.NullOrSameExecs))
	obs.Count("vm.barrier.rearrange_execs", int64(sum.RearrangeExecs))
	// Per-flavor counters: one run uses one flavor, so these aggregate
	// cleanly across runs of different flavors (satbd /metrics, traced
	// multi-config benchmarks).
	obs.Count("vm.barrier.flavor."+v.spec.Name+".execs", int64(sum.TotalExecs))
	obs.Count("vm.barrier.flavor."+v.spec.Name+".logged", int64(v.counters.Logged))
	obs.Count("vm.barrier.flavor."+v.spec.Name+".shaded", int64(v.counters.Shaded))
}

// threadSpan opens a lane span covering one VM thread's lifetime (inert
// when tracing is disabled; the Enabled guard keeps the lane-name format
// off the disabled path).
func threadSpan(id int) obs.Span {
	if !obs.Enabled() {
		return obs.Span{}
	}
	return obs.StartSpan(fmt.Sprintf("vm/thread%d", id), "vm", "thread")
}

// result assembles the Result of a completed run.
func (v *VM) result() *Result {
	res := &Result{
		Output:         v.output,
		Steps:          v.steps,
		Counters:       v.counters,
		Cycles:         v.cycles,
		FinalPauseWork: v.finalPauseWork,
		Allocated:      v.heap.Allocated,
		Swept:          v.swept,
		Engine:         v.cfg.Engine.String(),
		Flavor:         v.spec.Name,
		TierUps:        v.tierUps,
		TierDeopts:     v.tierDeopts,
		TierSegExecs:   v.tierSegExecs,
	}
	if v.oracle != nil {
		res.ElisionChecks = v.oracle.checks
	}
	return res
}

func newFrame(dm *dmethod) *frame {
	return &frame{m: dm.src, d: dm, locals: make([]heap.Value, dm.numSlots), stack: make([]heap.Value, 0, dm.stackCap)}
}

// roots collects the current GC roots: every reference in every thread's
// frames, plus static fields. Both engines contribute in the same order
// (threads, frames bottom-up, locals by slot, then stack bottom-up) so
// the deterministic marker sees an identical work queue.
func (v *VM) roots() []heap.Ref {
	var out []heap.Ref
	for _, t := range v.threads {
		for _, f := range t.frames {
			for _, val := range f.locals {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
			for _, val := range f.stack {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
		}
	}
	for _, t := range v.fthreads {
		for _, f := range t.frames {
			for _, val := range f.locals {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
			for _, val := range f.stack[:f.sp] {
				if val.IsRef && val.R != heap.Null {
					out = append(out, val.R)
				}
			}
		}
	}
	return append(out, v.heap.StaticRoots()...)
}

// startCycle begins a marking cycle.
func (v *VM) startCycle() {
	v.cycleSpan = obs.StartSpan("vm/gc", "gc", "mark-cycle")
	v.marker.Start(v.roots(), v.checkInv)
	v.allocSinceGC = 0
}

// finishCycle completes the cycle, checks the invariant, and sweeps.
func (v *VM) finishCycle() {
	v.finalPauseWork += v.marker.Finish(v.roots())
	v.cycles++
	if v.checkInv {
		if m, ok := v.marker.(*gc.SATBMarker); ok {
			if err := m.CheckSnapshotInvariant(); err != nil {
				panic(err) // soundness bug: tests convert via recover
			}
		}
	}
	swept := v.heap.Sweep()
	v.swept += swept
	if v.cycleSpan.Recording() {
		cs := v.marker.Stats()
		v.cycleSpan.EndArgs(
			obs.KV{K: "marked", V: int64(cs.Marked)},
			obs.KV{K: "mark_steps", V: int64(cs.Steps)},
			obs.KV{K: "final_pause_work", V: int64(cs.FinalPauseWork)},
			obs.KV{K: "log_entries", V: int64(cs.LogEntries)},
			obs.KV{K: "cards_seen", V: int64(cs.CardsSeen)},
			obs.KV{K: "retraces", V: int64(cs.Retraces)},
			obs.KV{K: "swept", V: int64(swept)},
		)
		v.cycleSpan = obs.Span{}
		obs.Count("gc.cycles", 1)
		obs.Count("gc.marked", int64(cs.Marked))
		obs.Count("gc.log_entries", int64(cs.LogEntries))
		obs.Count("gc.final_pause_work", int64(cs.FinalPauseWork))
	}
}

// cancelled polls the RunContext cancellation channel. Nil-check only on
// the plain Run path; a non-blocking select per scheduler quantum when a
// cancellable context was supplied.
func (v *VM) cancelled() error {
	if v.cancel == nil {
		return nil
	}
	select {
	case <-v.cancel:
		return fmt.Errorf("vm: run cancelled: %w", v.ctx.Err())
	default:
		return nil
	}
}

// gcTick advances the collector after each quantum.
func (v *VM) gcTick() {
	if v.marker == nil {
		return
	}
	if v.marker.MarkingActive() {
		if v.marker.Step(v.cfg.MarkStepBudget) {
			v.finishCycle()
			if v.cfg.ForceMarkingAlways {
				v.startCycle()
			}
		}
		return
	}
	if v.cfg.ForceMarkingAlways {
		v.startCycle()
		return
	}
	if v.cfg.TriggerEveryAllocs > 0 && v.allocSinceGC >= v.cfg.TriggerEveryAllocs {
		v.startCycle()
	}
}

func (v *VM) errf(f *frame, format string, args ...any) error {
	line := 0
	if f.pc < len(f.m.Code) {
		line = f.m.Code[f.pc].Line
	}
	return &RuntimeError{Method: f.m.QualifiedName(), PC: f.pc, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// runQuantum executes up to Quantum instructions on one thread.
func (v *VM) runQuantum(t *thread) error {
	for i := 0; i < v.cfg.Quantum; i++ {
		if len(t.frames) == 0 {
			t.done = true
			t.span.End()
			return nil
		}
		if v.steps >= v.maxSteps {
			return fmt.Errorf("vm: instruction budget exhausted (%d)", v.maxSteps)
		}
		if err := v.step(t); err != nil {
			return err
		}
	}
	return nil
}

// step executes one instruction of the thread's top frame.
func (v *VM) step(t *thread) error {
	f := t.frames[len(t.frames)-1]
	if f.pc >= len(f.m.Code) {
		return v.errf(f, "pc past end of method")
	}
	in := &f.m.Code[f.pc]
	v.steps++

	push := func(val heap.Value) { f.stack = append(f.stack, val) }
	pop := func() heap.Value {
		val := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return val
	}

	switch in.Op {
	case bytecode.OpNop:
	case bytecode.OpConst, bytecode.OpConstBool:
		push(heap.IntVal(in.A))
	case bytecode.OpConstNull:
		push(heap.NullVal())
	case bytecode.OpLoad:
		push(f.locals[in.A])
	case bytecode.OpStore:
		f.locals[in.A] = pop()
	case bytecode.OpDup:
		push(f.stack[len(f.stack)-1])
	case bytecode.OpPop:
		pop()
	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpRem:
		y, x := pop().I, pop().I
		var r int64
		switch in.Op {
		case bytecode.OpAdd:
			r = x + y
		case bytecode.OpSub:
			r = x - y
		case bytecode.OpMul:
			r = x * y
		case bytecode.OpDiv:
			if y == 0 {
				return v.errf(f, "division by zero")
			}
			r = x / y
		case bytecode.OpRem:
			if y == 0 {
				return v.errf(f, "division by zero")
			}
			r = x % y
		}
		push(heap.IntVal(r))
	case bytecode.OpNeg:
		push(heap.IntVal(-pop().I))
	case bytecode.OpAnd:
		y, x := pop().I, pop().I
		push(heap.IntVal(x & y))
	case bytecode.OpOr:
		y, x := pop().I, pop().I
		push(heap.IntVal(x | y))
	case bytecode.OpNot:
		push(heap.IntVal(1 - pop().I))
	case bytecode.OpCmpEQ, bytecode.OpCmpNE, bytecode.OpCmpLT, bytecode.OpCmpLE,
		bytecode.OpCmpGT, bytecode.OpCmpGE:
		y, x := pop().I, pop().I
		var b bool
		switch in.Op {
		case bytecode.OpCmpEQ:
			b = x == y
		case bytecode.OpCmpNE:
			b = x != y
		case bytecode.OpCmpLT:
			b = x < y
		case bytecode.OpCmpLE:
			b = x <= y
		case bytecode.OpCmpGT:
			b = x > y
		case bytecode.OpCmpGE:
			b = x >= y
		}
		push(heap.IntVal(b2i(b)))
	case bytecode.OpRefEQ:
		y, x := pop().R, pop().R
		push(heap.IntVal(b2i(x == y)))
	case bytecode.OpRefNE:
		y, x := pop().R, pop().R
		push(heap.IntVal(b2i(x != y)))

	case bytecode.OpGoto:
		f.pc = int(in.A)
		return nil
	case bytecode.OpIfTrue:
		if pop().I != 0 {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfFalse:
		if pop().I == 0 {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfNull:
		if pop().R == heap.Null {
			f.pc = int(in.A)
			return nil
		}
	case bytecode.OpIfNonNull:
		if pop().R != heap.Null {
			f.pc = int(in.A)
			return nil
		}

	case bytecode.OpGetField:
		obj := pop()
		if obj.R == heap.Null {
			return v.errf(f, "null pointer dereference reading %s", in.Field)
		}
		val, err := v.heap.GetField(obj.R, in.Field)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		if v.prog.FieldType(in.Field).IsRef() {
			val.IsRef = true
		}
		push(val)
	case bytecode.OpPutField:
		val := pop()
		obj := pop()
		if obj.R == heap.Null {
			return v.errf(f, "null pointer dereference writing %s", in.Field)
		}
		old, err := v.heap.SetField(obj.R, in.Field, val)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		if v.prog.FieldType(in.Field).IsRef() {
			if err := v.storeBarrier(f.site(), t.id, old.R, val.R, obj.R); err != nil {
				return err
			}
		}
	case bytecode.OpGetStatic:
		val := v.heap.GetStatic(in.Field)
		if v.prog.FieldType(in.Field).IsRef() {
			val.IsRef = true
		}
		push(val)
	case bytecode.OpPutStatic:
		val := pop()
		old := v.heap.SetStatic(in.Field, val)
		if v.prog.FieldType(in.Field).IsRef() {
			v.staticStore(old.R, val.R)
		}

	case bytecode.OpNewInstance:
		r, err := v.heap.AllocObject(in.Type.Class)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		push(v.allocated(r, f.d, int32(f.pc), t.id))
	case bytecode.OpNewArray:
		n := pop().I
		if n < 0 {
			return v.errf(f, "negative array size %d", n)
		}
		r, err := v.heap.AllocArray(in.Type.IsRef(), n)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		push(v.allocated(r, f.d, int32(f.pc), t.id))
	case bytecode.OpArrayLength:
		arr := pop()
		if arr.R == heap.Null {
			return v.errf(f, "null pointer dereference in arraylength")
		}
		n, err := v.heap.ArrayLen(arr.R)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		push(heap.IntVal(n))

	case bytecode.OpAALoad, bytecode.OpIALoad:
		idx := pop().I
		arr := pop()
		if arr.R == heap.Null {
			return v.errf(f, "null pointer dereference in array load")
		}
		val, err := v.heap.GetElem(arr.R, idx)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		if in.Op == bytecode.OpAALoad {
			val.IsRef = true
		}
		push(val)
	case bytecode.OpAAStore:
		val := pop()
		idx := pop().I
		arr := pop()
		if arr.R == heap.Null {
			return v.errf(f, "null pointer dereference in array store")
		}
		old, err := v.heap.SetElem(arr.R, idx, val)
		if err != nil {
			return v.errf(f, "%v", err)
		}
		if err := v.storeBarrier(f.site(), t.id, old.R, val.R, arr.R); err != nil {
			return err
		}
	case bytecode.OpIAStore:
		val := pop()
		idx := pop().I
		arr := pop()
		if arr.R == heap.Null {
			return v.errf(f, "null pointer dereference in array store")
		}
		if _, err := v.heap.SetElem(arr.R, idx, val); err != nil {
			return v.errf(f, "%v", err)
		}

	case bytecode.OpInvoke:
		callee := f.callee()
		nf := newFrame(callee)
		for i := callee.numArgs - 1; i >= 0; i-- {
			nf.locals[i] = pop()
		}
		if !callee.static && nf.locals[0].R == heap.Null {
			return v.errf(f, "null receiver calling %s", in.Method)
		}
		f.pc++
		t.frames = append(t.frames, nf)
		return nil
	case bytecode.OpSpawn:
		recv := pop()
		if recv.R == heap.Null {
			return v.errf(f, "null receiver in spawn")
		}
		nf := newFrame(f.callee())
		nf.locals[0] = recv
		v.publish(recv.R)
		v.threads = append(v.threads, &thread{id: len(v.threads), frames: []*frame{nf}, span: threadSpan(len(v.threads))})
	case bytecode.OpReturn:
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) > 0 {
			// Caller's pc was already advanced at the invoke.
		}
		return nil
	case bytecode.OpReturnValue:
		rv := pop()
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) > 0 {
			caller := t.frames[len(t.frames)-1]
			caller.stack = append(caller.stack, rv)
		}
		return nil
	case bytecode.OpPrint:
		v.output = append(v.output, pop().I)
	case bytecode.OpTrap:
		return v.errf(f, "missing return value")
	default:
		return v.errf(f, "unknown opcode %v", in.Op)
	}
	f.pc++
	return nil
}

// site returns the decoded store-site record of the frame's current pc.
func (f *frame) site() *siteRec { return &f.d.sites[f.d.code[f.pc].b] }

// callee returns the decoded call target of the frame's current pc.
func (f *frame) callee() *dmethod { return f.d.callees[f.d.code[f.pc].a].m }

// elideKind maps instruction flags to the barrier verdict.
func elideKind(in *bytecode.Instr) satb.ElideKind {
	switch {
	case in.Elide:
		return satb.ElidePreNull
	case in.ElideNullOrSame:
		return satb.ElideNullOrSame
	case in.ElideRearrange:
		return satb.ElideRearrange
	default:
		return satb.ElideNone
	}
}

// b2i is the shared bool→int conversion (kept as a local alias so the hot
// interpreter loop reads naturally).
func b2i(b bool) int64 { return num.B2I(b) }
