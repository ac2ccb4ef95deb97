// Gcdemo runs a mutation-heavy program under real concurrent marking in
// three configurations and reports what the barriers did:
//
//  1. SATB marking with full barriers,
//  2. SATB marking with analysis-elided barriers (validating the
//     snapshot invariant every cycle — a wrong elision would trip it),
//  3. incremental-update (card-marking) baseline, showing the much larger
//     final stop-the-world rescan the paper's §1 motivates SATB with.
package main

import (
	"fmt"
	"log"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

const src = `
class Node { int v; Node next; Node(int v0) { v = v0; } }
class App {
    static Node keep;
    static void main() {
        int total = 0;
        for (int round = 0; round < 30; round = round + 1) {
            Node head = null;
            for (int i = 0; i < 40; i = i + 1) {
                Node n = new Node(i + round);
                n.next = head;     // initializing: SATB can skip it
                head = n;
            }
            App.keep = head;       // previous round's list becomes garbage
            // Unlink half the kept list: these overwrite non-null
            // pointers and must be logged while marking runs.
            Node c = App.keep;
            while (c != null && c.next != null) {
                c.next = c.next.next;
                c = c.next;
            }
            total = total + App.keep.v;
        }
        print(total);
    }
}
`

func run(name string, analysis core.Options, barrier satb.BarrierMode, kind vm.GCKind) {
	build, err := pipeline.Compile("gcdemo", src, pipeline.Options{InlineLimit: 100, Analysis: analysis})
	if err != nil {
		log.Fatal(err)
	}
	res, err := vm.New(build.Program, vm.Config{
		Barrier:            barrier,
		GC:                 kind,
		TriggerEveryAllocs: 120,
		MarkStepBudget:     8,
		CheckInvariant:     kind == vm.GCSATB,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}
	s := res.Counters.Summarize()
	fmt.Printf("== %s ==\n", name)
	fmt.Printf("  output %v; %d marking cycles; %d objects swept\n", res.Output, res.Cycles, res.Swept)
	fmt.Printf("  barrier execs %d (elided %d), log entries %d, barrier cost %d units\n",
		s.TotalExecs, s.ElidedExecs, res.Counters.Logged, res.Counters.Cost)
	if res.Cycles > 0 {
		fmt.Printf("  mean final-pause work: %.1f scan units\n", float64(res.FinalPauseWork)/float64(res.Cycles))
	}
	if len(s.UnsoundSites) > 0 {
		fmt.Printf("  !! unsound elisions: %v\n", s.UnsoundSites)
	} else if kind == vm.GCSATB {
		fmt.Printf("  SATB snapshot invariant verified on every cycle\n")
	}
	fmt.Println()
}

func main() {
	run("SATB, full barriers", core.Options{Mode: core.ModeNone}, satb.ModeConditional, vm.GCSATB)
	run("SATB, elided barriers", core.Options{Mode: core.ModeFieldArray}, satb.ModeConditional, vm.GCSATB)
	run("incremental update (card marking)", core.Options{Mode: core.ModeNone}, satb.ModeCardMarking, vm.GCIncremental)
}
