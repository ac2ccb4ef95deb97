package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
	"satbelim/internal/vm"
)

// coldCorpus is the number of programs compile-cold generates, about as
// many as a 20 s window compiles on two cores; ops beyond it start over.
// The latency percentiles are over a couple of hundred distinct programs,
// which is what keeps them steady from seed to seed.
const coldCorpus = 256

// coldGen is the generator configuration of compile-cold: every campaign
// idiom, with the size bounds raised to large programs (about 13 KB of
// bytecode after inlining).
func coldGen() progen.Config {
	c := progen.CampaignConfig()
	c.Classes, c.Methods, c.MaxStmts, c.MaxDepth = 6, 16, 10, 4
	return c
}

// coldWorkload is compile-cold: each op is one cold pipeline.Compile of
// the next corpus program (traced: the same stages as separate calls).
type coldWorkload struct {
	ins []*input
}

// fullCompileOptions is compile-cold's analysis: mode A with the
// null-or-same extension and interprocedural summaries.
func fullCompileOptions() pipeline.Options {
	return compileOptions(core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Interprocedural: true})
}

func (w *coldWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w.ins = make([]*input, coldCorpus)
	for i := range w.ins {
		s := rng.Int63()
		w.ins[i] = &input{name: fmt.Sprintf("cold%d", s), src: progen.Generate(s, coldGen())}
	}
	return addReferences(w.ins)
}

func (w *coldWorkload) warm() {
	for _, in := range w.ins[len(w.ins)-2:] {
		pipeline.Compile(in.name, in.src, fullCompileOptions())
	}
}

func (w *coldWorkload) clients() int { return 1 }
func (w *coldWorkload) round() int   { return 1 }

// coldTail is compile-cold's tail percentile: a 20 s window compiles
// about 250 programs on two cores, so p90 keeps at least ten samples
// beyond it even at under half that rate.
const coldTail = 0.9

func (w *coldWorkload) op(tr *tracer, i int) *opRec {
	in := w.ins[i%len(w.ins)]
	r := &opRec{i: i, in: in, kind: "compile"}
	var err error
	r.dur = timeOp(tr, i, func(root int) {
		if tr == nil {
			var b *pipeline.Build
			if b, err = pipeline.Compile(in.name, in.src, fullCompileOptions()); err == nil {
				r.b = fromPipeline(b, in.src)
			}
			return
		}
		r.b, err = decomposedCompile(tr, i, root, in.name, in.src, fullCompileOptions())
	})
	if err != nil {
		r.fail = err.Error()
	}
	return r
}

// verify checks one op right after it, off the window clock, and keeps
// only its counts: holding every build until the window closes would
// take hundreds of megabytes. It runs the compiled program under the run
// configuration for its output and instruction rate, and again under the
// elision oracle. In the traced run the decomposed compile must also
// equal pipeline.Compile on the same input. A compile allocates tens of
// megabytes, so verify collects the garbage before the rate runs and
// again before returning: every run and the next compile start from the
// same quiet heap.
func (w *coldWorkload) verify(r *opRec, ph *phase) {
	b := r.b
	r.b = nil
	defer runtime.GC()
	if r.fail != "" {
		return
	}
	if r.fail = checkCompile(b, r.in.ref); r.fail != "" {
		return
	}
	if ph.tr != nil {
		addCompileLayers(ph.win, b)
		if r.fail, r.drift = checkTracedPath(ph.tr, ph.sideOp(), b, r.in.name, r.in.src, fullCompileOptions()); r.fail != "" {
			return
		}
	}
	res, runD, mallocs, err := timedRun(ph.tr, ph.sideOp(), -1, b.prog, runConfig(false))
	if err != nil {
		r.fail = "run: " + err.Error()
		return
	}
	r.st = statsOf(res)
	if r.fail = checkRun(r.st, r.in.ref); r.fail != "" {
		return
	}
	if _, err := vm.New(b.prog, runConfig(true)).Run(); err != nil {
		r.fail = "oracle: " + err.Error()
		return
	}
	if drift := ph.fps.observe(r.in.name, map[string]fingerprint{"compile": compileFingerprint(b), "run": runFingerprint(r.st)}); drift != "" {
		r.drift = strings.TrimPrefix(r.drift+"; "+drift, "; ")
	}
	addRunLayers(ph.side, r.st)
	addRunTimes(ph.side, r.st, runD, mallocs)
	runtime.GC()
	r.runD = medianRun(b)
	r.sites, r.elidedSites = b.sites()
}

// check sums up the verified ops, each program once. A few generated
// programs run for hundreds of thousands of steps and most for a few
// hundred, so pooled totals would follow how many long runners a seed
// drew; the run-side metrics are per-program means instead: the
// geometric mean of each program's instruction rate in Run, and the
// mean of each program's share of elided barrier executions.
func (w *coldWorkload) check(recs []*opRec, wall time.Duration, ph *phase) tally {
	var rates, elims []float64
	var sites, elided int
	seen := map[*input]bool{}
	for _, r := range recs {
		if r.fail != "" || seen[r.in] {
			continue
		}
		seen[r.in] = true
		if r.st.steps > 0 {
			rates = append(rates, float64(r.st.steps)/r.runD.Seconds()/1e6)
		}
		if r.st.barrierExecs > 0 {
			elims = append(elims, pct(float64(r.st.elidedExecs), float64(r.st.barrierExecs)))
		}
		sites += r.sites
		elided += r.elidedSites
	}
	t := tally{minstr: geomean(rates), elimDyn: mean(elims), elimStatic: pct(float64(elided), float64(sites))}
	t.overall(recs, coldTail)
	return t
}

// rateRuns is how many runs of a compiled program its instruction rate
// takes the median of: most programs run for microseconds.
const rateRuns = 5

// medianRun returns the median Run time of a compiled program over
// rateRuns runs.
func medianRun(b *build) time.Duration {
	var ds []float64
	for len(ds) < rateRuns {
		v := vm.New(b.prog, runConfig(false))
		t0 := time.Now()
		v.Run()
		ds = append(ds, time.Since(t0).Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second))
}

func (w *coldWorkload) sweep() ([]*input, vm.Config) {
	return w.ins[:sweepInputs], runConfig(false)
}

func (w *coldWorkload) close() {}
