package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"satbelim/internal/vm"
)

// engineRuns is how many runs per engine compareEngines takes the median
// of.
const engineRuns = 5

// compareEngines prints the Go allocations and the median time of a
// vm.New + Run of the build on the compiled tier and on fused dispatch.
func compareEngines(log io.Writer, name string, b *build, cfg vm.Config) {
	measureEngine := func(e vm.Engine) (allocs uint64, med time.Duration) {
		cfg.Engine = e
		var ds []float64
		var m0, m1 runtime.MemStats
		for k := 0; k < engineRuns; k++ {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			vm.New(b.prog, cfg).Run()
			ds = append(ds, time.Since(t0).Seconds())
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
		return allocs, time.Duration(median(ds) * float64(time.Second))
	}
	ca, ct := measureEngine(vm.EngineCompiled)
	fa, ft := measureEngine(vm.EngineFused)
	fmt.Fprintf(log, "  %-28s compiled %7d allocs %9v | fused %7d allocs %9v | compiled/fused speed %.2fx\n",
		name, ca, ct, fa, ft, ft.Seconds()/ct.Seconds())
}

// sweepInputs is how many of a workload's inputs the layer sweep takes.
const sweepInputs = 6

// sweep runs a few of the workload's inputs through every layer, one
// public call at a time inside spans, after the windows closed: the
// decomposed compile and pipeline.Compile (whose results must be equal)
// with the full analysis of compile-cold, so every compile layer is
// reached, a VM run under the workload's configuration and a satbd /run
// round trip. A per-layer metric the window's ops never reached is
// reported from the sweep, per input.
func sweep(ph *phase, ins []*input, cfg vm.Config) {
	opts := fullCompileOptions()
	fmt.Fprintln(ph.log, "sweep: Go allocations and median time per vm.New + Run, by engine:")
	d, err := startDaemon()
	if err != nil {
		ph.problem("sweep: %v", err)
		return
	}
	defer d.stop()
	for _, in := range ins {
		op := ph.sideOp()
		b, err := decomposedCompile(ph.tr, op, -1, in.name, in.src, opts)
		if err != nil {
			ph.problem("sweep %s: decomposed compile: %v", in.name, err)
			continue
		}
		addCompileLayers(ph.side, b)
		fail, drift := checkTracedPath(ph.tr, op, b, in.name, in.src, opts)
		if fail != "" {
			ph.problem("sweep %s: %s", in.name, fail)
		}
		if drift != "" {
			ph.drifts = append(ph.drifts, fmt.Sprintf("sweep %s: %s", in.name, drift))
		}
		res, runD, mallocs, err := timedRun(ph.tr, op, -1, b.prog, cfg)
		if err != nil {
			ph.problem("sweep %s: run: %v", in.name, err)
			continue
		}
		st := statsOf(res)
		if msg := checkRun(st, in.ref); msg != "" {
			ph.problem("sweep %s: %s", in.name, msg)
		}
		addRunLayers(ph.side, st)
		addRunTimes(ph.side, st, runD, mallocs)
		compareEngines(ph.log, in.name, b, cfg)
		status, body, dur, err := d.post(ph.tr, op, -1, "run", request(in.name, in.src))
		if err != nil {
			ph.problem("sweep %s: satbd: %v", in.name, err)
			continue
		}
		doc, msg := checkResponse("run", status, body, in.ref)
		if msg != "" {
			ph.problem("sweep %s: satbd: %s", in.name, msg)
		}
		addSatbdLayers(ph.side, doc, dur)
	}
}
