package report

import (
	"fmt"
	"strings"

	"satbelim/internal/core"
	"satbelim/internal/satb"
	"satbelim/internal/vm"
)

// OracleRow is one (workload, analysis config) soundness-oracle run:
// every elided store executed under concurrent SATB marking with the
// runtime elision oracle validating the overwritten-slot-is-null and
// target-is-thread-local claims.
type OracleRow struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Limit    int    `json:"inline_limit"`
	// Checks counts elided-store executions the oracle validated.
	Checks int64 `json:"elision_checks"`
	// Violation is the soundness violation, if any ("" when clean).
	Violation string `json:"violation,omitempty"`
	// Degraded lists methods whose analysis bailed out to all-barriers.
	Degraded []string `json:"degraded,omitempty"`
}

// Clean reports whether the run validated with no violation.
func (r OracleRow) Clean() bool { return r.Violation == "" }

// oracleConfigs are the analysis configurations the soundness sweep
// covers: the paper's A mode plus every extension that adds elisions.
var oracleConfigs = []struct {
	name string
	opts core.Options
}{
	{"A", modeA},
	{"A+nos", core.Options{Mode: core.ModeFieldArray, NullOrSame: true}},
	{"A+nos+rearr", core.Options{Mode: core.ModeFieldArray, NullOrSame: true, Rearrange: true}},
	{"A+ip", core.Options{Mode: core.ModeFieldArray, Interprocedural: true}},
}

// Oracle runs every workload under every oracle configuration with
// Config.CheckElisions set, on the compiled engine so that compiled
// elided stores are checked too. A violation is reported in the row
// rather than failing the experiment, so a sweep always yields the full
// matrix; callers that want hard failure (e.g. satbbench -strict) check
// Clean() per row.
var Oracle = &Experiment[OracleRow]{
	name: "oracle", usage: "soundness oracle: validate every elided store at runtime",
	cells: func(s Settings) []Cell {
		run := &vm.Config{
			Barrier:            satb.ModeConditional,
			GC:                 vm.GCSATB,
			TriggerEveryAllocs: 256,
			CheckInvariant:     true,
			CheckElisions:      true,
			Engine:             vm.EngineCompiled,
		}
		var variants []Cell
		for _, c := range oracleConfigs {
			variants = append(variants, Cell{Limit: s.InlineLimit, Analysis: c.opts, Run: run})
		}
		return perWorkload(variants...)
	},
	project: func(recs []*Record) ([]OracleRow, error) {
		rows := make([]OracleRow, len(recs))
		for i, r := range recs {
			row := OracleRow{Workload: r.Workload.Name, Config: oracleConfigs[i%len(oracleConfigs)].name, Limit: r.Limit}
			for _, m := range r.Build.Report.Degraded() {
				row.Degraded = append(row.Degraded, fmt.Sprintf("%s (%s)", m.Method.QualifiedName(), m.Degraded))
			}
			if r.Result != nil {
				row.Checks = r.Result.ElisionChecks
			}
			if r.Err != nil {
				row.Violation = r.Err.Error()
			}
			rows[i] = row
		}
		return rows, nil
	},
	table: table[OracleRow]{
		title: "Soundness oracle (elided stores validated at runtime)",
		head:  fmt.Sprintf("%-7s %-12s %6s %12s  %s", "bench", "config", "limit", "checks", "status"),
		row:   "%-7s %-12s %6d %12d  %s",
		vals: func(r OracleRow) []any {
			status := "ok"
			if !r.Clean() {
				status = "VIOLATION: " + r.Violation
			}
			if len(r.Degraded) > 0 {
				status += fmt.Sprintf(" [degraded: %s]", strings.Join(r.Degraded, ", "))
			}
			return []any{r.Workload, r.Config, r.Limit, r.Checks, status}
		},
	},
	store:      func(d *Document, rows []OracleRow) { d.Oracle = rows },
	violations: true,
}
