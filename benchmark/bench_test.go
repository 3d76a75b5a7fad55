package main

import (
	"maps"
	"strings"
	"testing"

	"ojv/internal/rel"
)

// runCounted sets up a workload and runs exactly n statements after the
// warm-up, traced when lay is requested.
func runCounted(t *testing.T, workload string, seed int64, n int, traced bool) (*env, *runStats, *layers, map[string]int64) {
	t.Helper()
	e, err := setup(workload, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	var lay *layers
	var c0 map[string]int64
	if traced {
		lay = newLayers(e)
		c0 = counters(e)
	}
	st := measure(e, limit{stmts: n}, lay)
	if st.failed > 0 {
		t.Fatalf("%s: %d failures: %v", workload, st.failed, st.errs)
	}
	if !traced {
		return e, st, nil, nil
	}
	c := counters(e)
	for k, v := range c0 {
		c[k] -= v
	}
	return e, st, lay, c
}

// TestCheckerRejectsCorruptedView: a view with one corrupted row must fail
// both halves of the output check — the replay comparison and the
// recomputation.
func TestCheckerRejectsCorruptedView(t *testing.T) {
	e, _, _, _ := runCounted(t, oltpSync, 3, 50, false)
	if err := check(e); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	// Overwrite l_quantity (output column 2) of one stored V3 row in place;
	// the base tables stay as they are.
	corrupted := false
	for _, row := range e.v3.Maintainer().Materialized().Rows() {
		if !row[2].IsNull() {
			row[2] = rel.Int(row[2].AsInt() + 1000)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no V3 row with a lineitem")
	}
	if err := e.v3.Check(); err == nil {
		t.Fatal("View.Check accepted a corrupted row")
	}
	err := check(e)
	if err == nil || !strings.Contains(err.Error(), "view V3") {
		t.Fatalf("check did not reject the corrupted view V3: %v", err)
	}
}

// TestCheckerRejectsMissingStatement: a run whose final state lacks one
// statement of the stream must differ from the replay.
func TestCheckerRejectsMissingStatement(t *testing.T) {
	e, _, _, _ := runCounted(t, batchMultiview, 4, 300, false)
	got := captureState(e.db, e.views)
	want, err := replayState(e.workload, e.seed, e.executed)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffStates(got, want); len(d) > 0 {
		t.Fatalf("clean run differs from its replay: %v", d)
	}
	short, err := replayState(e.workload, e.seed, e.executed-1)
	if err != nil {
		t.Fatal(err)
	}
	d := diffStates(got, short)
	if len(d) == 0 {
		t.Fatal("a replay missing one statement matched the run")
	}
	if !strings.Contains(strings.Join(d, "\n"), "table ") {
		t.Fatalf("missing statement not seen in any base table: %v", d)
	}
}

// TestDeterministicLayerCounts: two traced runs of the same seed and
// statement count give identical per-layer counts — the deterministic
// gates a later change can be held to, unlike wall-clock times.
func TestDeterministicLayerCounts(t *testing.T) {
	for _, w := range []string{oltpSync, batchMultiview} {
		// Enough statements for at least nine commits per view, so epoch
		// compactions happen on both workloads.
		n := 400
		if w == batchMultiview {
			n = 10 * batchGroup
		}
		_, _, l1, c1 := runCounted(t, w, 7, n, true)
		_, _, l2, c2 := runCounted(t, w, 7, n, true)
		a, b := l1.layerCounts(c1), l2.layerCounts(c2)
		if !maps.Equal(a, b) {
			t.Errorf("%s: per-layer counts differ between identical runs:\n%v\n%v", w, a, b)
		}
		if a["rows_scanned"] == 0 || a["undo_records"] == 0 || a["epoch_compactions"] == 0 {
			t.Errorf("%s: counters not collected: %v", w, a)
		}
		if w == batchMultiview && (a["shared_rows_saved"] == 0 || a["coalesced_rows"] == 0) {
			t.Errorf("%s: sharing or coalescing never happened: %v", w, a)
		}
		t.Logf("%s: %v", w, a)
	}
}

// TestTracedPathMatchesFacade: the traced oltp_sync run drives statements
// through the calls Database makes instead of through Database itself; it
// must end in exactly the facade's state.
func TestTracedPathMatchesFacade(t *testing.T) {
	ef, _, _, _ := runCounted(t, oltpSync, 5, 300, false)
	et, _, lay, _ := runCounted(t, oltpSync, 5, 300, true)
	if d := diffStates(captureState(et.db, et.views), captureState(ef.db, ef.views)); len(d) > 0 {
		t.Fatalf("traced path and facade disagree: %v", d)
	}
	if lay.relApply.n != 300 || len(lay.publish) != 300 || lay.maintain.n != 300 {
		t.Fatalf("layer calls not all timed: apply %d publish %d maintain %d", lay.relApply.n, len(lay.publish), lay.maintain.n)
	}
	if err := check(et); err != nil {
		t.Fatal(err)
	}
}

// TestServeMixed runs serve_mixed's writer, reader and output check for a
// fixed statement count: every probed insert becomes visible and the final
// state equals the synchronous replay.
func TestServeMixed(t *testing.T) {
	e, st, _, _ := runCounted(t, serveMixed, 6, 3000, false)
	if len(st.visLat) == 0 || len(st.readLat) == 0 || len(st.flushLat) == 0 {
		t.Fatalf("no samples: vis %d read %d flush %d", len(st.visLat), len(st.readLat), len(st.flushLat))
	}
	if err := check(e); err != nil {
		t.Fatal(err)
	}
}

// layerCounts are the per-layer quantities that depend only on the seed
// and the statement count — the deterministic gates.
func (l *layers) layerCounts(c map[string]int64) map[string]int64 {
	return map[string]int64{
		"rows_scanned":       c["exec.rows.scanned"],
		"hash_build_rows":    c["exec.join.hash.build_rows"],
		"index_probe_rows":   c["exec.join.index.probe_rows"],
		"undo_records":       c["view.undo.records"],
		"epoch_compactions":  c["view.epoch.compactions"],
		"shared_rows_saved":  c["view.shared.rows.saved"],
		"coalesced_rows":     l.coalesced,
		"rows_primary":       c["view.rows.primary"],
		"rows_secondary":     c["view.rows.secondary"],
		"delta_rows_x_views": l.deltaRowsViews,
	}
}
