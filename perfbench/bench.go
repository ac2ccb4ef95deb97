package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"satbelim/internal/vm"
)

// workload is one named traffic shape. The seed chooses its inputs; the
// system under test sees only the generated sources.
type workload interface {
	// setup builds the inputs, their references and whatever the ops
	// need. It runs several times per run; the last state is kept.
	setup(seed int64) error
	// warm makes untimed ops so lazy set-up settles before timing.
	warm()
	// clients is the closed-loop client count.
	clients() int
	// round is the number of ops that visit every input once; a
	// single-client window ends on a round boundary.
	round() int
	// op makes op number i; tr is nil outside the traced window.
	op(tr *tracer, i int) *opRec
	// check verifies a window's ops after the window closed.
	// wall is the window's wall time.
	check(recs []*opRec, wall time.Duration, ph *phase) tally
	// sweep returns the inputs of the traced run's layer sweep and the
	// VM configuration the workload uses.
	sweep() ([]*input, vm.Config)
	close()
}

// opRec is one timed op and what its check needs.
type opRec struct {
	i     int
	in    *input
	kind  string
	dur   time.Duration
	fail  string // a wrong output or a failed check
	drift string // a count that did not repeat exactly

	b           *build   // compile ops, until verified
	sites       int      // compile ops: reference-store sites
	elidedSites int      // compile ops: sites elided
	st          runStats // run ops
	mallocs     uint64   // run ops, traced
	runD        time.Duration
	status      int    // satbd ops
	body        []byte // satbd ops
}

// An opChecker checks each op right after it, with the window clock
// stopped, so that a workload whose outputs are large need not hold them
// all until the window closes.
type opChecker interface {
	verify(r *opRec, ph *phase)
}

// phase is what a check needs besides the ops: the tracer and ledgers of
// the traced run (nil otherwise) and the exact-count fingerprints.
type phase struct {
	tr       *tracer
	win      *ledger // counts of the window's ops
	side     *ledger // counts of calls made outside the window's ops
	fps      *fingerprints
	problems []string // failed checks outside any op
	drifts   []string // counts outside any op that did not repeat exactly
	nextOp   int
	log      io.Writer
}

func (ph *phase) problem(format string, args ...any) {
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

// sideBase is the first op id of calls made outside the window's ops.
const sideBase = 1 << 30

// sideOp returns a fresh op id for a call made outside the window's ops.
func (ph *phase) sideOp() int {
	ph.nextOp++
	return sideBase + ph.nextOp
}

// tally is what a window's check derives for the end-to-end metrics that
// each workload defines its own way (see LEDGER.md).
type tally struct {
	p50, tail  float64 // op latency in ms
	tailDesc   string  // which percentile tail is
	minstr     float64 // VM instructions per second, in millions
	elimDyn    float64 // % of executed reference-store barriers elided
	elimStatic float64 // % of reference-store sites elided
}

// setupReps is how many times a run sets up; setup_s is their median,
// which leaves out the first set-up's one-time costs and a neighbour's
// burst on the machine.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	setups   int // set-ups per run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "compile-cold":
		return &coldWorkload{}, nil
	case "run-hot":
		return &runWorkload{}, nil
	case "run-oracle":
		return &runWorkload{oracle: true}, nil
	case "serve-mixed":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want compile-cold, run-hot, run-oracle or serve-mixed)", name)
}

// run sets the workload up, measures it and checks every output. The
// untraced run reports the end-to-end metrics; the traced run measures an
// untraced and a traced window of half the length each and reports the
// per-layer metrics.
func run(cfg config, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		if k > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	w.warm()

	fps, err := loadFingerprints(cfg.out, cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintf(log, "counts are compared within this run only: identifying the build: %v\n", err)
	}
	ph := &phase{fps: fps, log: log}
	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	var all []*opRec
	if !cfg.trace {
		recs, wall, alloc := measure(w, nil, d, 0, ph)
		t := w.check(recs, wall, ph)
		all = recs
		set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
		set("setup_s", median(setups))
		set("latency_ms_p50", t.p50)
		set("latency_ms_tail", t.tail)
		set("ops_per_s", float64(len(recs))/wall.Seconds())
		set("minstr_per_s", t.minstr)
		set("alloc_kb_per_op", float64(alloc)/1024/float64(len(recs)))
		set("elim_pct_dyn", t.elimDyn)
		set("elim_pct_static", t.elimStatic)
		fmt.Fprintf(log, "setup_s is the median of %d set-ups: %.4g s\n", cfg.setups, setups)
		fmt.Fprintf(log, "latency_ms_tail is %s; %d ops\n", t.tailDesc, len(recs))
	} else {
		recsU, wallU, _ := measure(w, nil, d/2, 0, ph)
		tU := w.check(recsU, wallU, ph)
		tr := newTracer()
		ph.tr, ph.win, ph.side = tr, newLedger(), newLedger()
		// The traced window makes the untraced window's ops again, so the
		// difference of the two is the tracing overhead, except under
		// concurrent clients: serve-mixed continues its stream, as a
		// repeated program name would be served from the daemon's cache.
		base := 0
		if w.clients() > 1 {
			base = len(recsU)
		}
		recsT, wallT, _ := measure(w, tr, d/2, base, ph)
		tT := w.check(recsT, wallT, ph)
		ins, vcfg := w.sweep()
		sweep(ph, ins, vcfg)
		spans := 0
		for op, names := range tr.selfTimes() {
			l := ph.win
			if op >= sideBase {
				l = ph.side
			} else {
				spans += names.spans
			}
			l.addSelfTimes(names.self)
		}
		all = append(recsU, recsT...)
		ph.win.add("trace.overhead_ms", tT.p50-tU.p50)
		ph.win.add("trace.spans_per_op", float64(spans)/float64(len(recsT)))
		for _, name := range perLayer {
			v, ok := ph.win.value(name.name)
			if !ok {
				v, _ = ph.side.value(name.name)
			}
			res.Metrics[name.name] = metric{v, name.unit}
		}
		printShares(log, ph.win, mean(latencies(recsT)))
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	if err := ph.fps.save(); err != nil {
		ph.problem("saving fingerprints: %v", err)
	}
	// A failed check outside any op (in the sweep) counts as one more
	// failure. Drift is a failure too, but leaves correct alone: the
	// outputs were right, a count was not exact.
	for _, r := range all {
		switch {
		case r.fail != "":
			ph.problem("op %d (%s %s): %s", r.i, r.kind, r.in.name, r.fail)
		case r.drift != "":
			ph.drifts = append(ph.drifts, fmt.Sprintf("op %d (%s %s): %s", r.i, r.kind, r.in.name, r.drift))
		}
	}
	res.Attempted, res.Failed = len(all), len(ph.problems)+len(ph.drifts)
	res.Correct = len(ph.problems) == 0
	for i, p := range append(ph.problems, ph.drifts...) {
		if i == 20 {
			fmt.Fprintf(log, "... %d more failures\n", res.Failed-i)
			break
		}
		fmt.Fprintln(log, "FAIL:", p)
	}
	fmt.Fprintf(log, "fail_ratio = %g (%d of %d ops failed)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

// measure runs ops back to back on the workload's closed-loop clients
// until d has passed and, for a single client, the current round is
// complete. It returns the ops, the window's wall time and the Go heap
// bytes allocated in it; neither counts an opChecker's checks.
func measure(w workload, tr *tracer, d time.Duration, base int, ph *phase) ([]*opRec, time.Duration, uint64) {
	runtime.GC()
	var m0, m1, c0, c1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	var recs []*opRec
	var off time.Duration
	var offAlloc uint64
	if n := w.clients(); n == 1 {
		v, verifies := w.(opChecker)
		for i := base; i%w.round() != 0 || time.Now().Before(deadline.Add(off)); i++ {
			r := w.op(tr, i)
			if verifies {
				t0 := time.Now()
				runtime.ReadMemStats(&c0)
				v.verify(r, ph)
				runtime.ReadMemStats(&c1)
				offAlloc += c1.TotalAlloc - c0.TotalAlloc
				off += time.Since(t0)
			}
			recs = append(recs, r)
		}
	} else {
		var (
			mu   sync.Mutex
			next atomic.Int64
			wg   sync.WaitGroup
		)
		next.Store(int64(base))
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []*opRec
				for time.Now().Before(deadline) {
					mine = append(mine, w.op(tr, int(next.Add(1))-1))
				}
				mu.Lock()
				recs = append(recs, mine...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		slices.SortFunc(recs, func(a, b *opRec) int { return a.i - b.i })
	}
	wall := time.Since(start) - off
	runtime.ReadMemStats(&m1)
	return recs, wall, m1.TotalAlloc - m0.TotalAlloc - offAlloc
}

// timeOp times f as op i of the window, inside the op's root span.
func timeOp(tr *tracer, i int, f func(root int)) time.Duration {
	root := tr.begin("op", i, -1)
	t0 := time.Now()
	f(root)
	d := time.Since(t0)
	tr.end(root)
	return d
}

// overall sets the median and the tail percentile p of the latencies of
// all ops.
func (t *tally) overall(recs []*opRec, p float64) {
	lat := latencies(recs)
	t.p50, t.tail = quantile(lat, 0.5), quantile(lat, p)
	t.tailDesc = fmt.Sprintf("p%g, %d ops beyond it", 100*p, beyondQuantile(len(lat), p))
}

// beyondQuantile is the number of n samples that lie beyond their
// nearest-rank percentile p.
func beyondQuantile(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func latencies(recs []*opRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.dur)
	}
	return out
}

// quantile is the nearest-rank percentile of the samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// geomean is the geometric mean of positive samples.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pct(num, den float64) float64 { return 100 * num / den }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// printShares prints each layer's self time per op in the traced window
// and its share of the mean op latency.
func printShares(log io.Writer, l *ledger, meanOp float64) {
	fmt.Fprintf(log, "traced window: mean op %.4f ms\n", meanOp)
	for _, m := range perLayer {
		if m.unit != "ms" || m.name == "trace.overhead_ms" {
			continue
		}
		if v, ok := l.value(m.name); ok {
			fmt.Fprintf(log, "  %-22s %10.4f ms/op  %5.1f%%\n", m.name, v, 100*v/meanOp)
		}
	}
}
