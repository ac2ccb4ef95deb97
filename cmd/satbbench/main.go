// Command satbbench regenerates the paper's evaluation artifacts over the
// built-in workload suite: Table 1 (dynamic eliminations), Table 2 (jbb
// end-to-end barrier cost), Figure 2 (inline-limit sweep), Figure 3
// (compiled code size), the §4.3 null-or-same measurements, the
// compile-side performance snapshot (per-stage times + fixed-point block
// visits), the soundness-oracle sweep (-oracle: every workload run
// with runtime validation of each elided store), and the cross-flavor
// barrier matrix (-barriers: every workload under every barrier flavor —
// conditional, always-log, yuasa, dijkstra, hybrid, card — comparing
// per-flavor elimination rates and end-to-end barrier cost).
//
// With -json FILE every computed section is additionally written as a
// versioned report.Document (e.g. BENCH_satb.json), so the perf
// trajectory can be compared across revisions. The file is written
// atomically (temp file + rename), so a crashed or interrupted run never
// leaves a truncated document behind.
//
// -trace FILE records every pipeline stage, per-method analysis span, VM
// run and GC cycle as a Chrome trace_event JSON file (open in Perfetto);
// -metrics FILE writes the aggregated span/counter rollup. Both exports
// are off by default, in which case every instrumentation hook stays on
// its zero-allocation disabled path.
//
// -deadline D applies a per-method analysis wall-clock budget: methods
// exceeding it degrade to the sound all-barriers result. -strict exits
// nonzero if any method degraded or the oracle found a violation, for CI
// gating.
//
// Usage:
//
//	satbbench -all
//	satbbench -table1 -fig3
//	satbbench -all -json BENCH_satb.json
//	satbbench -table1 -trace trace.json -metrics metrics.json
//	satbbench -oracle -strict -deadline 2s
package main

import (
	"flag"
	"fmt"
	"os"

	"satbelim/internal/cli"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	selected := map[report.Section]*bool{}
	for _, e := range report.Experiments {
		name, usage := e.Flag()
		selected[e] = flag.Bool(name, false, usage)
	}
	interpAlias := flag.Bool("interproc", false, "alias for -interprocedural")
	inlineLimit := flag.Int("inline", report.DefaultInlineLimit,
		"inline limit for Table 1/2, Figure 3, null-or-same, rearrange, barriers, perf, vmperf and oracle "+
			"(Figure 2 sweeps its fixed limits 0-200; interprocedural uses 0 and 100)")
	workers := flag.Int("workers", 0, "per-method analysis fan-out (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "per-method analysis wall-clock budget (0 = unlimited); over-budget methods keep all barriers")
	strict := flag.Bool("strict", false, "exit nonzero if any method degraded or the oracle found a violation (implies -oracle)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file (e.g. BENCH_satb.json)")
	var ob cli.Obs
	ob.RegisterFlags()
	flag.Parse()

	*selected[report.Oracle] = *selected[report.Oracle] || *strict
	*selected[report.Interprocedural] = *selected[report.Interprocedural] || *interpAlias
	chosen := false
	for _, on := range selected {
		*on = *on || *all
		chosen = chosen || *on
	}
	if !chosen {
		fmt.Fprintln(os.Stderr, "usage: satbbench [-all] [-table1] [-table2] [-fig2] [-fig3] [-nullorsame] [-rearrange] [-barriers] [-interprocedural] [-perf] [-vmperf] [-oracle] [-strict] [-deadline D] [-json FILE] [-trace FILE] [-metrics FILE]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	ob.Start()

	out := report.NewDocument("satbbench")
	out.InlineLimit = *inlineLimit
	out.Workers = *workers
	runner := report.NewRunner(report.Settings{InlineLimit: *inlineLimit, Workers: *workers, Deadline: *deadline})
	for _, e := range report.Experiments {
		if !*selected[e] {
			continue
		}
		text, err := e.Emit(runner, out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	oracleFailed := false
	for _, r := range out.Oracle {
		oracleFailed = oracleFailed || !r.Clean() || len(r.Degraded) > 0
	}

	cs := pipeline.DefaultCache.Stats()
	out.BuildCache = &cs

	if *jsonPath != "" {
		if err := cli.WriteDocument(*jsonPath, out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "satbbench: wrote %s\n", *jsonPath)
	}

	if err := ob.Finish("satbbench"); err != nil {
		fatal(err)
	}

	if *strict && oracleFailed {
		fmt.Fprintln(os.Stderr, "satbbench: -strict: oracle violations or degraded methods present")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satbbench:", err)
	os.Exit(1)
}
