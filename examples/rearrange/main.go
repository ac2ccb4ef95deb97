// Rearrange demonstrates the paper's §4.3 array-rearrangement protocol on
// db's dominant pattern: a sort whose element swaps account for most
// barrier executions. With the extension enabled, the swap stores stop
// logging pre-values; instead they read the array's tracing state and
// schedule a retrace when the collector's scan overlapped the swap. Both
// configurations run under real concurrent SATB marking with the snapshot
// invariant machine-checked every cycle.
package main

import (
	"fmt"
	"log"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
	"satbelim/internal/workloads"
)

func run(rearrange bool) {
	w, err := workloads.Get("db")
	if err != nil {
		log.Fatal(err)
	}
	build, err := pipeline.Compile(w.Name, w.Source, pipeline.Options{
		InlineLimit: 100,
		Analysis:    core.Options{Mode: core.ModeFieldArray, Rearrange: rearrange},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := vm.New(build.Program, vm.Config{
		Barrier:            satb.ModeConditional,
		GC:                 vm.GCSATB,
		TriggerEveryAllocs: 150,
		MarkStepBudget:     4,
		CheckInvariant:     true,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}
	s := res.Counters.Summarize()
	label := "without rearrangement"
	if rearrange {
		label = "with rearrangement"
	}
	fmt.Printf("== db %s ==\n", label)
	fmt.Printf("  output %v, %d marking cycles (snapshot invariant verified)\n", res.Output, res.Cycles)
	fmt.Printf("  barriers: %d total; pre-null elided %.1f%%; swap-covered %.1f%%; retraces %d\n",
		s.TotalExecs,
		100*float64(s.ElidedExecs)/float64(s.TotalExecs),
		100*float64(s.RearrangeExecs)/float64(s.TotalExecs),
		s.Retraces)
	fmt.Printf("  barrier cost: %d units; SATB log entries: %d\n\n", res.Counters.Cost, res.Counters.Logged)
	if len(s.UnsoundSites) > 0 {
		fmt.Printf("  !! unsound: %v\n", s.UnsoundSites)
	}
}

func main() {
	run(false)
	run(true)
}
