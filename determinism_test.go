package satbelim

import (
	"runtime"
	"testing"

	"satbelim/internal/core"
	"satbelim/internal/pipeline"
	"satbelim/internal/progen"
)

// TestAnalysisVisitsRepeat compiles one large generated program again and
// again and demands the same core block-visit count every time, on one
// worker and on all of them. The program (seed 6700127738002675197 with
// the campaign idioms at 6 classes, 16 methods, 10 statements, depth 4)
// used to analyze in 1969 visits on some compiles and 1970 on others:
// the state merge consulted its shared stride context in map iteration
// order, so the fresh stride variables, and with them the fixed point's
// path, differed from run to run.
func TestAnalysisVisitsRepeat(t *testing.T) {
	gen := progen.CampaignConfig()
	gen.Classes, gen.Methods, gen.MaxStmts, gen.MaxDepth = 6, 16, 10, 4
	src := progen.Generate(6700127738002675197, gen)
	compiles := 20
	if testing.Short() {
		compiles = 5
	}
	visits := map[int]int{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		for i := 0; i < compiles; i++ {
			b, err := pipeline.Compile("visits", src, pipeline.Options{
				InlineLimit: 100,
				Analysis:    core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Interprocedural: true},
				Workers:     workers,
				NoCache:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			visits[b.Report.BlockVisits()]++
		}
	}
	if len(visits) != 1 {
		t.Errorf("block visits vary across compiles (count per value): %v", visits)
	}
}
