package workloads_test

// Cross-flavor regression gates over the real workload suite: the
// barrier-flavor matrix has exact structural relationships between
// flavors that must hold on every workload, independent of the
// particular elimination percentages — the yuasa deletion barrier uses
// exactly the verdict set of the conditional SATB barrier, the dijkstra
// insertion barrier can use none of the deletion-side verdicts, and the
// hybrid keeps only the pre-null subset. A projection or spec-table bug
// breaks one of these identities immediately.

import (
	"testing"

	"satbelim/internal/report"
)

func TestBarrierFlavorMatrixRelations(t *testing.T) {
	rows := measure(t, report.Barriers)
	// Index rows by workload then flavor.
	byWorkload := map[string]map[string]report.BarrierRow{}
	for _, r := range rows {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = map[string]report.BarrierRow{}
		}
		byWorkload[r.Workload][r.Flavor] = r
	}
	for w, fl := range byWorkload {
		cond, okC := fl["conditional"]
		yuasa, okY := fl["yuasa"]
		dijk, okD := fl["dijkstra"]
		hyb, okH := fl["hybrid"]
		if !okC || !okY || !okD || !okH {
			t.Fatalf("%s: matrix missing flavors (have %v)", w, fl)
		}
		// Every flavor sees the same dynamic store stream.
		for name, r := range fl {
			if r.Execs != cond.Execs {
				t.Errorf("%s/%s: execs %d != conditional %d", w, name, r.Execs, cond.Execs)
			}
		}
		// Yuasa shades exactly what conditional shades: identical verdict
		// usage, identical elimination and log traffic.
		if yuasa.ElimPct != cond.ElimPct || yuasa.PreNullPct != cond.PreNullPct ||
			yuasa.NullOrSamePct != cond.NullOrSamePct || yuasa.RearrangePct != cond.RearrangePct {
			t.Errorf("%s: yuasa elimination (%.2f/%.2f/%.2f/%.2f) != conditional (%.2f/%.2f/%.2f/%.2f)",
				w, yuasa.ElimPct, yuasa.PreNullPct, yuasa.NullOrSamePct, yuasa.RearrangePct,
				cond.ElimPct, cond.PreNullPct, cond.NullOrSamePct, cond.RearrangePct)
		}
		if yuasa.Logged != cond.Logged {
			t.Errorf("%s: yuasa logged %d != conditional %d", w, yuasa.Logged, cond.Logged)
		}
		if yuasa.Shaded != 0 || cond.Shaded != 0 {
			t.Errorf("%s: deletion-only flavors shaded new values (yuasa=%d cond=%d)", w, yuasa.Shaded, cond.Shaded)
		}
		// Dijkstra can honor no deletion-side verdict: zero elimination,
		// zero log entries, and every static verdict discarded.
		if dijk.ElimPct != 0 || dijk.StaticKept != 0 {
			t.Errorf("%s: dijkstra elim %.2f%% staticKept %d, want 0/0", w, dijk.ElimPct, dijk.StaticKept)
		}
		if dijk.Logged != 0 {
			t.Errorf("%s: dijkstra logged %d pre-values, want 0", w, dijk.Logged)
		}
		// Hybrid keeps exactly the pre-null subset.
		if hyb.PreNullPct != cond.PreNullPct {
			t.Errorf("%s: hybrid pre-null %.2f%% != conditional %.2f%%", w, hyb.PreNullPct, cond.PreNullPct)
		}
		if hyb.NullOrSamePct != 0 || hyb.RearrangePct != 0 {
			t.Errorf("%s: hybrid used non-pre-null verdicts (nos=%.2f rearr=%.2f)",
				w, hyb.NullOrSamePct, hyb.RearrangePct)
		}
		// Static verdict splits are consistent with the dynamic picture.
		if cond.StaticDiscarded != 0 || yuasa.StaticDiscarded != 0 {
			t.Errorf("%s: snapshot flavors discarded verdicts (cond=%d yuasa=%d)",
				w, cond.StaticDiscarded, yuasa.StaticDiscarded)
		}
		if hyb.StaticKept+hyb.StaticDiscarded != dijk.StaticKept+dijk.StaticDiscarded {
			t.Errorf("%s: flavors disagree on total verdicts (hybrid %d+%d, dijkstra %d+%d)",
				w, hyb.StaticKept, hyb.StaticDiscarded, dijk.StaticKept, dijk.StaticDiscarded)
		}
	}
}
