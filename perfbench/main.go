// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output against a
// reference derived without the analysis or engines under test, and
// prints its metrics, the last line being one JSON object:
//
//	bash perfbench/run.sh --workload run-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span around every call into a layer and reports the
// per-layer metrics. BENCHMARK.json lists both sets; LEDGER.md records
// why each workload exists and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	cfg := config{setups: setupReps}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "compile-cold, run-hot, run-oracle or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed that chooses the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span dumps and count fingerprints")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Printf("%-26s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
