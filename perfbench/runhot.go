package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"satbelim/internal/bytecode"
	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

// runWorkload is run-hot (and, with oracle, run-oracle): the six Table-1
// programs, compiled during set-up, each op one vm.New + Run of one of
// them. The seed orders the programs within each round.
type runWorkload struct {
	oracle     bool
	seed       int64
	ins        []*input
	progs      []*bytecode.Program
	elimStatic float64 // of the six builds
}

func (w *runWorkload) setup(seed int64) error {
	w.seed = seed
	w.ins, w.progs = nil, nil
	var sites, elided int
	for _, wl := range workloads.All() {
		w.ins = append(w.ins, &input{name: wl.Name, src: wl.Source})
	}
	if err := addReferences(w.ins); err != nil {
		return err
	}
	for _, in := range w.ins {
		b, err := pipeline.Compile(in.name, in.src, compileOptions(core.Options{Mode: core.ModeFieldArray}))
		if err != nil {
			return err
		}
		bb := fromPipeline(b, in.src)
		if msg := checkCompile(bb, in.ref); msg != "" {
			return fmt.Errorf("%s: %s", in.name, msg)
		}
		s, e := bb.sites()
		sites += s
		elided += e
		w.progs = append(w.progs, b.Program)
	}
	w.elimStatic = pct(float64(elided), float64(sites))
	return nil
}

func (w *runWorkload) warm() {
	for i := range w.progs {
		vm.New(w.progs[i], runConfig(w.oracle)).Run()
	}
}

func (w *runWorkload) clients() int { return 1 }
func (w *runWorkload) round() int   { return len(w.ins) }

// runTail is the per-program tail percentile of the run workloads. A
// 20 s window holds about 200 oracle runs of each program, so p95 would
// keep ten samples beyond it, but on a shared two-core machine it
// followed neighbours' load (spread 0.37 over ten runs); p90 keeps about
// twenty beyond it and is steadier.
const runTail = 0.9

// program returns the input of op i: a seeded permutation per round.
func (w *runWorkload) program(i int) int {
	n := len(w.ins)
	perm := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i/n))).Perm(n)
	return perm[i%n]
}

func (w *runWorkload) op(tr *tracer, i int) *opRec {
	k := w.program(i)
	r := &opRec{i: i, in: w.ins[k], kind: "run"}
	var res *vm.Result
	var err error
	r.dur = timeOp(tr, i, func(root int) {
		res, r.runD, r.mallocs, err = timedRun(tr, i, root, w.progs[k], runConfig(w.oracle))
	})
	if err != nil {
		r.fail = err.Error()
		return r
	}
	r.st = statsOf(res)
	return r
}

// check compares every run with its program's reference and fingerprint.
// The six programs' latencies differ several-fold, so a percentile of the
// mixture would sit on a gap between two programs: each latency metric is
// the geometric mean over the programs of that program's percentile, and
// minstr_per_s the geometric mean of steps over the median latency.
// elim_pct_dyn pools one run of each program.
func (w *runWorkload) check(recs []*opRec, wall time.Duration, ph *phase) tally {
	var execs, elided uint64
	durs := map[*input][]float64{}
	seen := map[*input]bool{}
	for _, r := range recs {
		if r.fail != "" {
			continue
		}
		if r.fail = checkRun(r.st, r.in.ref); r.fail != "" {
			continue
		}
		r.drift = ph.fps.observe(r.in.name, map[string]fingerprint{"run": runFingerprint(r.st)})
		durs[r.in] = append(durs[r.in], r.dur.Seconds())
		if !seen[r.in] {
			seen[r.in] = true
			execs += r.st.barrierExecs
			elided += r.st.elidedExecs
		}
		addRunLayers(ph.win, r.st)
		addRunTimes(ph.win, r.st, r.runD, r.mallocs)
	}
	var p50s, tails, rates []float64
	var beyond []string
	for _, in := range w.ins {
		if ds := durs[in]; len(ds) > 0 {
			p50s = append(p50s, 1e3*quantile(ds, 0.5))
			tails = append(tails, 1e3*quantile(ds, runTail))
			rates = append(rates, float64(in.ref.steps)/quantile(ds, 0.5)/1e6)
			beyond = append(beyond, fmt.Sprintf("%s %d", in.name, beyondQuantile(len(ds), runTail)))
		}
	}
	return tally{p50: geomean(p50s), tail: geomean(tails), minstr: geomean(rates),
		elimDyn: pct(float64(elided), float64(execs)), elimStatic: w.elimStatic,
		tailDesc: fmt.Sprintf("the geometric mean of each program's p%g; ops beyond it: %s", 100*runTail, strings.Join(beyond, ", "))}
}

func (w *runWorkload) sweep() ([]*input, vm.Config) {
	return w.ins, runConfig(w.oracle)
}

func (w *runWorkload) close() {}
