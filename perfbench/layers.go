package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/codegen"
	"satbelim/internal/core"
	"satbelim/internal/inline"
	"satbelim/internal/minijava"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/verifier"
	"satbelim/internal/vm"
)

// inlineLimit is the inline limit of every compile the benchmark makes.
const inlineLimit = 100

// workers is the fan-out width of every compile: one per CPU.
var workers = runtime.NumCPU()

// compileOptions returns the pipeline options of a measured compile:
// never served from the build cache.
func compileOptions(a core.Options) pipeline.Options {
	return pipeline.Options{InlineLimit: inlineLimit, Analysis: a, Workers: workers, NoCache: true}
}

// runConfig is the VM configuration of every measured run: the compiled
// tier, the conditional SATB barrier and concurrent SATB marking every
// 200 allocations at the default quantum; oracle arms the elision oracle
// and the snapshot-invariant check.
func runConfig(oracle bool) vm.Config {
	return vm.Config{
		Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: 200, Engine: vm.EngineCompiled,
		CheckElisions: oracle, CheckInvariant: oracle,
	}
}

// input is one program a workload feeds the system, with its reference.
type input struct {
	name, src string
	ref       *reference
}

// reference is what a program must produce, derived without the analysis
// or the engines under test: an analysis-off build run on the switch
// reference interpreter. The site counts are read off that build's
// bytecode by the benchmark itself.
type reference struct {
	output     []int64
	steps      int64
	methods    int
	fieldSites int
	arraySites int
}

func computeReference(name, src string) (*reference, error) {
	b, err := pipeline.Compile(name, src, compileOptions(core.Options{Mode: core.ModeNone}))
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	res, err := vm.New(b.Program, vm.Config{Engine: vm.EngineSwitch}).Run()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &reference{output: res.Output, steps: res.Steps}
	for _, m := range b.Program.Methods() {
		ref.methods++
		for pc := range m.Code {
			switch in := &m.Code[pc]; in.Op {
			case bytecode.OpPutField:
				if b.Program.FieldType(in.Field).IsRef() {
					ref.fieldSites++
				}
			case bytecode.OpAAStore:
				ref.arraySites++
			}
		}
	}
	return ref, nil
}

// addReferences fills in the references of the inputs, one CPU each.
func addReferences(ins []*input) error {
	return parallel(workers, len(ins), func(i int) error {
		ref, err := computeReference(ins[i].name, ins[i].src)
		if err != nil {
			return fmt.Errorf("%s: %w", ins[i].name, err)
		}
		ins[i].ref = ref
		return nil
	})
}

// parallel runs f(0..n-1) on k goroutines and returns the error of the
// lowest failing index, whatever the scheduling.
func parallel(k, n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(k, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// build is one compiled program, from either compile path.
type build struct {
	prog          *bytecode.Program
	rep           *core.ProgramReport
	srcBytes      int
	codegenBytes  int // 0 from pipeline.Compile, which does not expose it
	bytecodeBytes int
	expanded      int
}

func fromPipeline(b *pipeline.Build, src string) *build {
	return &build{prog: b.Program, rep: b.Report, srcBytes: len(src), bytecodeBytes: b.BytecodeBytes, expanded: b.InlinedCalls}
}

// decomposedCompile makes the pipeline's stages one public call at a
// time, each inside a span, with the worker count pipeline.Compile uses.
func decomposedCompile(tr *tracer, op, parent int, name, src string, opts pipeline.Options) (*build, error) {
	file := name + ".mj"
	sp := tr.begin("minijava.parse", op, parent)
	ast, err := minijava.Parse(file, src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("minijava.check", op, parent)
	checked, err := minijava.Check(file, ast)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("codegen.compile", op, parent)
	prog, err := codegen.Compile(checked)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b := &build{srcBytes: len(src), codegenBytes: prog.Size()}
	sp = tr.begin("inline.apply", op, parent)
	ir := inline.Apply(prog, inline.Options{Limit: opts.InlineLimit})
	tr.end(sp)
	b.prog, b.expanded = ir.Program, ir.Expanded

	sp = tr.begin("verifier.verify", op, parent)
	err = verify(b.prog, opts.Workers)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.bytecodeBytes = b.prog.Size()

	a := opts.Analysis
	if a.Interprocedural {
		sp = tr.begin("core.summaries", op, parent)
		a.Summaries, err = core.ComputeSummariesParallel(b.prog, a, opts.Workers)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("core.analyze", op, parent)
	b.rep, err = core.AnalyzeProgramCtx(context.Background(), b.prog, a, opts.Workers)
	tr.end(sp)
	return b, err
}

// verify verifies every method as pipeline.Compile does: fanned over n
// workers, reporting the first failing method in program order.
func verify(p *bytecode.Program, n int) error {
	methods := p.Methods()
	if n <= 1 || len(methods) <= 1 {
		return verifier.VerifyProgram(p)
	}
	return parallel(n, len(methods), func(i int) error { return verifier.Verify(p, methods[i]) })
}

// sites returns a build's reference-store sites and how many were elided
// (pre-null and null-or-same).
func (b *build) sites() (sites, elided int) {
	fs, as, fe, ae, nos := b.rep.Totals()
	return fs + as, fe + ae + nos
}

// elideHash digests every instruction's elision bits in program order.
func (b *build) elideHash() uint64 {
	h := fnv.New64a()
	for _, m := range b.prog.Methods() {
		h.Write([]byte(m.QualifiedName()))
		for pc := range m.Code {
			in := &m.Code[pc]
			h.Write([]byte{b2byte(in.Elide), b2byte(in.ElideNullOrSame), b2byte(in.ElideRearrange)})
		}
	}
	return h.Sum64()
}

func b2byte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// checkTracedPath compares a decomposed build with pipeline.Compile of
// the same input (timed in a span) in report totals, block visits,
// degraded methods and elision bits. Different results mean the traced
// path measures another program. Block visits alone differing is drift
// of a work count: core's visit count varies from compile to compile on
// some programs, with the same results.
func checkTracedPath(tr *tracer, op int, b *build, name, src string, opts pipeline.Options) (fail, drift string) {
	sp := tr.begin("pipeline.compile", op, -1)
	pb, err := pipeline.Compile(name, src, opts)
	tr.end(sp)
	if err != nil {
		return "pipeline.Compile: " + err.Error(), ""
	}
	fd, fp := compileFingerprint(b), compileFingerprint(fromPipeline(pb, src))
	switch {
	case fd == fp:
		return "", ""
	case fd.BlockVisits != fp.BlockVisits && withVisits(fd, fp.BlockVisits) == fp:
		return "", "block visits differ between the traced path and pipeline.Compile: " + diff(fd, fp)
	}
	return "traced path differs from pipeline.Compile: " + diff(fd, fp), ""
}

func withVisits(f fingerprint, visits int) fingerprint {
	f.BlockVisits = visits
	return f
}

// checkCompile is the per-build correctness check: the site counts match
// the reference's bytecode and no method degraded.
func checkCompile(b *build, ref *reference) string {
	if d := b.rep.Degraded(); len(d) > 0 {
		return fmt.Sprintf("%d methods degraded (%s: %s)", len(d), d[0].Method.QualifiedName(), d[0].Degraded)
	}
	fs, as, _, _, _ := b.rep.Totals()
	if fs != ref.fieldSites || as != ref.arraySites || len(b.rep.Methods) != ref.methods {
		return fmt.Sprintf("sites %d field/%d array in %d methods, reference %d/%d in %d",
			fs, as, len(b.rep.Methods), ref.fieldSites, ref.arraySites, ref.methods)
	}
	return ""
}

// runStats is what one VM run reports, from a vm.Result or from the run
// section of a satbd response.
type runStats struct {
	output       []int64
	steps        int64
	tierUps      int64
	tierDeopts   int64
	tierSegExecs int64
	oracleChecks int64
	barrierExecs uint64
	elidedExecs  uint64
	logged       uint64
	shaded       uint64
	cards        uint64
	cost         uint64
	cycles       int64
	finalPause   int64
	allocated    int64
	swept        int64
	unsound      int
}

func statsOf(res *vm.Result) runStats {
	s := res.Counters.Summarize()
	return runStats{
		output: res.Output, steps: res.Steps,
		tierUps: int64(res.TierUps), tierDeopts: res.TierDeopts, tierSegExecs: res.TierSegExecs,
		oracleChecks: res.ElisionChecks,
		barrierExecs: s.TotalExecs, elidedExecs: s.ElidedExecs + s.NullOrSameExecs,
		logged: res.Counters.Logged, shaded: res.Counters.Shaded, cards: res.Counters.CardsDirtied, cost: res.Counters.Cost,
		cycles: int64(res.Cycles), finalPause: int64(res.FinalPauseWork), allocated: res.Allocated, swept: int64(res.Swept),
		unsound: len(s.UnsoundSites),
	}
}

// checkRun compares a run with its reference: same output, same number
// of executed instructions, and no elided site that saw a non-null
// overwritten value.
func checkRun(st runStats, ref *reference) string {
	if !slices.Equal(st.output, ref.output) || st.steps != ref.steps {
		return fmt.Sprintf("output %v in %d steps, reference %v in %d steps", clip(st.output), st.steps, clip(ref.output), ref.steps)
	}
	if st.unsound > 0 {
		return fmt.Sprintf("%d elided sites saw a non-null overwritten value", st.unsound)
	}
	return ""
}

func clip(out []int64) []int64 {
	if len(out) > 8 {
		return out[:8]
	}
	return out
}

// timedRun is one vm.New + Run inside spans. It returns the time Run
// took and, with a tracer, the Go heap allocations of the two calls.
func timedRun(tr *tracer, op, parent int, prog *bytecode.Program, cfg vm.Config) (*vm.Result, time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin("vm.new", op, parent)
	v := vm.New(prog, cfg)
	tr.end(sp)
	sp = tr.begin("vm.run", op, parent)
	t0 := time.Now()
	res, err := v.Run()
	runD := time.Since(t0)
	tr.end(sp)
	var mallocs uint64
	if tr != nil {
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	}
	return res, runD, mallocs, err
}

// addRunLayers adds one run's counts to the vm, satb, gc and heap layers.
func addRunLayers(l *ledger, st runStats) {
	l.add("vm.steps", float64(st.steps))
	l.add("vm.tier_ups", float64(st.tierUps))
	l.add("vm.tier_deopts", float64(st.tierDeopts))
	l.addRatio("vm.deopts_per_tier_up", float64(st.tierDeopts), float64(st.tierUps))
	l.add("vm.tier_seg_execs", float64(st.tierSegExecs))
	l.add("vm.oracle_checks", float64(st.oracleChecks))
	l.add("satb.barrier_execs", float64(st.barrierExecs))
	l.add("satb.elided_execs", float64(st.elidedExecs))
	l.add("satb.logged", float64(st.logged))
	l.add("satb.shaded", float64(st.shaded))
	l.add("satb.cards", float64(st.cards))
	l.add("satb.cost_units", float64(st.cost))
	l.add("gc.cycles", float64(st.cycles))
	l.add("gc.final_pause_work", float64(st.finalPause))
	l.add("heap.allocated", float64(st.allocated))
	l.add("heap.swept", float64(st.swept))
}

// addRunTimes adds one run's instruction rate and Go allocations to the
// vm layer; the layer's self times come from the run's spans.
func addRunTimes(l *ledger, st runStats, runD time.Duration, mallocs uint64) {
	l.addRatio("vm.ns_per_instr", float64(runD.Nanoseconds()), float64(st.steps))
	l.add("vm.go_allocs_per_run", float64(mallocs))
}

// addCompileLayers adds one build's counts to the frontend, inline and
// core layers.
func addCompileLayers(l *ledger, b *build) {
	l.add("minijava.src_kb", float64(b.srcBytes)/1024)
	l.add("codegen.bytecode_bytes", float64(b.codegenBytes))
	l.add("inline.expanded_calls", float64(b.expanded))
	l.add("inline.bytecode_bytes", float64(b.bytecodeBytes))
	l.add("core.block_visits", float64(b.rep.BlockVisits()))
	l.add("core.degraded_methods", float64(len(b.rep.Degraded())))
	sites, elided := b.sites()
	l.addRatio("core.sites_elided_ratio", float64(elided), float64(sites))
}

// fingerprint holds the counts of one input that must repeat exactly:
// every compile or run of the input, in this run or any earlier run of
// the same workload and seed, must reproduce them.
type fingerprint struct {
	FieldSites, ArraySites, FieldElided, ArrayElided, NullOrSame int
	BlockVisits, Degraded                                        int
	ElideHash                                                    uint64

	Steps, TierUps, TierDeopts, TierSegExecs, OracleChecks int64
	BarrierExecs, ElidedExecs, Logged, Shaded, Cards, Cost uint64
	Cycles, FinalPause, Allocated, Swept                   int64
	OutputHash                                             uint64
}

func compileFingerprint(b *build) fingerprint {
	fp := fingerprint{BlockVisits: b.rep.BlockVisits(), Degraded: len(b.rep.Degraded()), ElideHash: b.elideHash()}
	fp.FieldSites, fp.ArraySites, fp.FieldElided, fp.ArrayElided, fp.NullOrSame = b.rep.Totals()
	return fp
}

func runFingerprint(st runStats) fingerprint {
	h := fnv.New64a()
	for _, v := range st.output {
		fmt.Fprintf(h, "%d,", v)
	}
	return fingerprint{
		Steps: st.steps, TierUps: st.tierUps, TierDeopts: st.tierDeopts, TierSegExecs: st.tierSegExecs,
		OracleChecks: st.oracleChecks, BarrierExecs: st.barrierExecs, ElidedExecs: st.elidedExecs,
		Logged: st.logged, Shaded: st.shaded, Cards: st.cards, Cost: st.cost, Cycles: st.cycles,
		FinalPause: st.finalPause, Allocated: st.allocated, Swept: st.swept, OutputHash: h.Sum64(),
	}
}

// fingerprints is the exact-count check. Fingerprints persist in a file
// per build of the benchmark, workload and seed, so drift between runs of
// the same code and seed shows as well as drift within one run, while a
// run of other code (a parent commit, an edited layer) starts afresh.
type fingerprints struct {
	path string // "" when the build could not be identified
	prev map[string]fingerprint
	cur  map[string]fingerprint
}

func loadFingerprints(dir, workload string, seed int64) (*fingerprints, error) {
	f := &fingerprints{prev: map[string]fingerprint{}, cur: map[string]fingerprint{}}
	digest, err := buildDigest()
	if err != nil {
		return f, err
	}
	f.path = filepath.Join(dir, "fingerprints", digest, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if data, err := os.ReadFile(f.path); err == nil {
		// A damaged file only loses the cross-run comparison.
		_ = json.Unmarshal(data, &f.prev)
	}
	return f, nil
}

// buildDigest identifies the code being measured by a digest of the
// running binary, which holds the program under test as well as the
// benchmark.
func buildDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	fh, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer fh.Close()
	h := sha256.New()
	if _, err := io.Copy(h, fh); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// observe records an input's fingerprints and describes any drift from
// an earlier observation ("" when none).
func (f *fingerprints) observe(input string, fps map[string]fingerprint) string {
	var drift []string
	for kind, fp := range fps {
		key := kind + ":" + input
		if old, ok := f.cur[key]; ok && old != fp {
			drift = append(drift, fmt.Sprintf("%s counts drifted within the run: %s", kind, diff(old, fp)))
		} else if old, ok := f.prev[key]; ok && old != fp {
			drift = append(drift, fmt.Sprintf("%s counts drifted from an earlier run of this seed: %s", kind, diff(old, fp)))
		}
		f.cur[key] = fp
	}
	slices.Sort(drift)
	return strings.Join(drift, "; ")
}

// diff names the fields in which two fingerprints differ.
func diff(a, b fingerprint) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			out = append(out, fmt.Sprintf("%s %v then %v", va.Type().Field(i).Name, x, y))
		}
	}
	return strings.Join(out, ", ")
}

func (f *fingerprints) save() error {
	if f.path == "" {
		return nil
	}
	for k, v := range f.cur {
		f.prev[k] = v
	}
	data, err := json.Marshal(f.prev)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(f.path, data, 0o644)
}
