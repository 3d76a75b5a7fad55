package main

import (
	"fmt"
	"time"

	"ojv"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// meanAcc accumulates a mean duration.
type meanAcc struct {
	n   int64
	sum time.Duration
}

func (a *meanAcc) add(d time.Duration) { a.n++; a.sum += d }

func (a meanAcc) mean() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.sum / time.Duration(a.n)
}

// layers folds a traced run into per-layer totals. Spans come from the
// opt-in tracers of the views and the write batch; the benchmark drains
// both after every flush (or every chunk of statements) and resets them, so
// the traced run's memory stays bounded however long it runs. Roots still
// open when drained (a flush in flight on the maintenance goroutine) are
// kept aside and folded once they end.
type layers struct {
	workers int
	nviews  int64

	// ojv: flush wall time, the part not covered by child spans, the
	// component count and the components' busy time against the flush's
	// capacity (wall × workers).
	flushes         int64
	flush           meanAcc
	flushResid      meanAcc
	components      int64
	busy, busyDenom time.Duration

	// pipeline: enqueue calls timed by the client, flush plan spans, and
	// the flush roots' staged/coalesced/prevalidated accounting.
	enqueue                         meanAcc
	plan                            meanAcc
	staged, coalesced, prevalidated int64

	// view: phase spans of every view.maintain root, commit roots, and V3
	// snapshot reads timed by the client.
	maintain, vplan, primEval, primApply, secondary, commit, snapRows meanAcc
	maintTotal                                                        time.Duration

	// rel: base apply (timed calls on oltp_sync, flush.step self time on
	// the batch workloads), epoch publish, snapshot point reads.
	relApply  meanAcc
	publish   samples
	snapGet   meanAcc
	steps     int64
	stepTotal time.Duration

	// deltaRowsViews is Σ over maintenance runs of delta rows × views, the
	// denominator of the per-delta-row ratios.
	deltaRowsViews int64
	// closeTime is serve_mixed's final Close, part of the writer's covered
	// time; lastCall is the layer time of the last oltp_sync statement.
	closeTime time.Duration
	lastCall  time.Duration
	callTotal time.Duration

	pendingView, pendingBatch []*ojv.Span
}

func newLayers(e *env) *layers {
	l := &layers{workers: 1, nviews: int64(len(e.views))}
	if e.workload == serveMixed {
		l.workers = 2
	}
	return l
}

// syncStmt runs one oltp_sync statement through the public calls that
// Database.Insert/Delete/Update make — catalog apply, per-view Begin and
// ApplyInsert/ApplyDelete/ApplyModify, CommitStaged, PublishEpochs — and
// times each. Only the traced run uses it; the run's final state must equal
// the facade's (TestTracedPathMatchesFacade). A failure aborts the run
// without rollback: the run is then reported incorrect.
func (l *layers) syncStmt(e *env, s stmt) error {
	cat := e.db.Catalog()
	t0 := time.Now()
	var err error
	var del, ins []rel.Row
	switch s.kind {
	case lineInsert, childInsert:
		ins = []rel.Row{s.row}
		err = cat.Insert(s.table, ins)
	case lineDelete, childDelete:
		del, err = cat.Delete(s.table, [][]rel.Value{s.key})
	default:
		var old rel.Row
		old, err = cat.Update(s.table, s.key, s.row)
		del, ins = []rel.Row{old}, []rel.Row{s.row}
	}
	t1 := time.Now()
	l.relApply.add(t1.Sub(t0))
	if err != nil {
		return err
	}
	type staged struct {
		m     *view.Maintainer
		cs    *view.Changeset
		stats *view.MaintStats
	}
	runs := make([]staged, 0, len(e.views))
	for _, v := range e.views {
		m := v.Maintainer()
		cs := m.Begin()
		var stats *view.MaintStats
		switch {
		case del == nil:
			stats, err = m.ApplyInsert(cs, s.table, ins)
		case ins == nil:
			stats, err = m.ApplyDelete(cs, s.table, del)
		default:
			stats, err = m.ApplyModify(cs, s.table, del, ins)
		}
		if err != nil {
			return fmt.Errorf("maintaining %s: %w", v.Name(), err)
		}
		runs = append(runs, staged{m, cs, stats})
	}
	for _, r := range runs {
		r.m.CommitStaged(r.cs, r.stats)
	}
	t3 := time.Now()
	cat.PublishEpochs()
	t4 := time.Now()
	l.publish = append(l.publish, t4.Sub(t3))
	l.lastCall = t4.Sub(t0)
	l.deltaRowsViews += l.nviews
	return nil
}

// stmtDone records one oltp_sync statement as a flush of one: its wall time
// as the client saw it, and the part no layer call covers.
func (l *layers) stmtDone(wall time.Duration) {
	l.flushes++
	l.flush.add(wall)
	l.flushResid.add(wall - l.lastCall)
	l.components++
	l.busy += l.lastCall
	l.busyDenom += wall
	l.callTotal += l.lastCall
}

// drain folds the ended roots of tr (and earlier roots that have ended
// since) and resets tr. On serve_mixed flushes run concurrently with the
// drain, and a root opened between the tracer's copy and its reset is lost:
// the one span a drain can miss.
func drain(tr *ojv.Tracer, pending *[]*ojv.Span, fold func(*ojv.Span)) {
	roots := append(*pending, tr.Roots()...)
	tr.Reset()
	var keep []*ojv.Span
	for _, r := range roots {
		if r.Ended() {
			fold(r)
		} else {
			keep = append(keep, r)
		}
	}
	*pending = keep
}

// fold drains both tracers of a traced run; it is a no-op untraced.
func (l *layers) fold(e *env) {
	if l == nil {
		return
	}
	drain(e.ins.viewTracer, &l.pendingView, l.foldView)
	drain(e.ins.batchTracer, &l.pendingBatch, l.foldFlush)
}

// foldView folds one root of the views' tracer.
func (l *layers) foldView(r *ojv.Span) {
	switch r.Name() {
	case "view.maintain":
		d := r.Duration()
		l.maintain.add(d)
		l.maintTotal += d
		l.foldPhases(r)
	case "changeset.commit":
		l.commit.add(r.Duration())
	}
}

func (l *layers) foldPhases(s *ojv.Span) {
	for _, c := range s.Children() {
		switch c.Name() {
		case "plan":
			l.vplan.add(c.Duration())
		case "primary.eval":
			l.primEval.add(c.Duration())
		case "primary.apply":
			l.primApply.add(c.Duration())
		case "secondary":
			l.secondary.add(c.Duration())
		case "pass.delete", "pass.insert":
			l.foldPhases(c)
		}
	}
}

// foldFlush folds one view.flush root of the batch tracer. A monolithic
// flush has plan, flush.step and commit children; a component flush has
// plan and flush.component children that run up to l.workers at a time.
// The base-table epoch publish has no span of its own: it is the uncovered
// remainder of a monolithic flush, and of each component.
func (l *layers) foldFlush(r *ojv.Span) {
	if r.Name() != "view.flush" {
		return
	}
	d := r.Duration()
	l.flushes++
	l.flush.add(d)
	if n, ok := r.AttrInt("rows_staged"); ok {
		l.staged += n
	}
	if n, ok := r.AttrInt("rows_coalesced"); ok {
		l.coalesced += n
	}
	if a, _ := r.AttrStr("apply"); a == "prevalidated" {
		l.prevalidated++
	}
	var plan, steps, commit, compSum, compMax time.Duration
	ncomp := 0
	for _, c := range r.Children() {
		switch c.Name() {
		case "plan":
			plan = c.Duration()
			l.plan.add(plan)
		case "flush.step":
			steps += l.foldStep(c, l.nviews)
		case "commit":
			commit = c.Duration()
		case "flush.component":
			ncomp++
			cd := c.Duration()
			compSum += cd
			compMax = max(compMax, cd)
			views, _ := c.AttrInt("views")
			var inner time.Duration
			for _, cc := range c.Children() {
				switch cc.Name() {
				case "flush.step":
					inner += l.foldStep(cc, views)
				case "commit":
					inner += cc.Duration()
				}
			}
			l.publish = append(l.publish, cd-inner)
		}
	}
	if ncomp == 0 {
		resid := d - plan - steps - commit
		l.publish = append(l.publish, resid)
		l.flushResid.add(resid)
		l.components++
		l.busy += steps + commit
		l.busyDenom += d
		return
	}
	par := compMax
	if ncomp > l.workers {
		par = compSum / time.Duration(l.workers)
	}
	l.flushResid.add(max(0, d-plan-par))
	l.components += int64(ncomp)
	l.busy += compSum
	l.busyDenom += d * time.Duration(l.workers)
}

func (l *layers) foldStep(c *ojv.Span, views int64) time.Duration {
	d := c.Duration()
	l.steps++
	l.stepTotal += d
	rows, _ := c.AttrInt("rows")
	l.deltaRowsViews += rows * views
	return d
}

// counterNames are the program's own counters the per-layer report reads,
// from the views' and the batch's registries together.
var counterNames = []string{
	"exec.rows.scanned", "exec.join.hash.build_rows", "exec.join.index.probe_rows",
	"view.rows.primary", "view.rows.secondary", "view.undo.records", "view.epoch.compactions",
	"view.shared.rows.saved", "view.shared.rows.consumer", "view.shared.subtrees",
}

// counters reads counterNames from both registries.
func counters(e *env) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	v, b := e.ins.viewMetrics.Snapshot(), e.ins.batchMetrics.Snapshot()
	for _, n := range counterNames {
		out[n] = v[n] + b[n]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perLayer assembles the per-layer report of a traced invocation from the
// untraced phase a (runtime counters, overhead base) and the traced phase b
// (spans, timed calls and counters c).
func (l *layers) perLayer(workload string, a, b *runStats, c map[string]int64) map[string]metric {
	stmts := float64(b.stmts)
	flushes := float64(l.flushes)
	drv := float64(l.deltaRowsViews)
	relApply := l.relApply.mean()
	covered := l.callTotal + l.snapGet.sum + l.snapRows.sum
	switch workload {
	case batchMultiview:
		if l.steps > 0 {
			relApply = (l.stepTotal - l.maintTotal) / time.Duration(l.steps)
		}
		covered = l.enqueue.sum + l.flush.sum - l.flushResid.sum + l.snapGet.sum + l.snapRows.sum
	case serveMixed:
		if l.steps > 0 {
			relApply = (l.stepTotal - l.maintTotal) / time.Duration(l.steps)
		}
		// The writer's own path: its statement calls and the final Close.
		covered = l.enqueue.sum + l.closeTime
	}
	perA := ratio(float64(a.wall), float64(a.stmts))
	perB := ratio(float64(b.wall), float64(b.stmts))
	m := map[string]metric{
		"ojv.flush_us":                        {us(l.flush.mean()), "us"},
		"ojv.flush_residual_us":               {us(l.flushResid.mean()), "us"},
		"ojv.components_per_flush":            {ratio(float64(l.components), flushes), "count"},
		"ojv.component_busy_frac":             {ratio(float64(l.busy), float64(l.busyDenom)), "ratio"},
		"pipeline.enqueue_ns":                 {float64(l.enqueue.mean().Nanoseconds()), "ns"},
		"pipeline.plan_us":                    {us(l.plan.mean()), "us"},
		"pipeline.coalesced_frac":             {ratio(float64(l.coalesced), float64(l.staged)), "ratio"},
		"pipeline.prevalidated_frac":          {ratio(float64(l.prevalidated), flushes), "ratio"},
		"view.maintain_us":                    {us(l.maintain.mean()), "us"},
		"view.plan_us":                        {us(l.vplan.mean()), "us"},
		"view.primary_eval_us":                {us(l.primEval.mean()), "us"},
		"view.primary_apply_us":               {us(l.primApply.mean()), "us"},
		"view.secondary_us":                   {us(l.secondary.mean()), "us"},
		"view.commit_us":                      {us(l.commit.mean()), "us"},
		"view.snapshot_rows_us":               {us(l.snapRows.mean()), "us"},
		"view.rows_primary_per_delta_row":     {ratio(float64(c["view.rows.primary"]), drv), "ratio"},
		"view.rows_secondary_per_delta_row":   {ratio(float64(c["view.rows.secondary"]), drv), "ratio"},
		"view.undo_records_per_row":           {ratio(float64(c["view.undo.records"]), drv), "ratio"},
		"view.epoch_compactions_per_1k_stmts": {1000 * ratio(float64(c["view.epoch.compactions"]), stmts), "count"},
		"view.shared_saved_frac":              {ratio(float64(c["view.shared.rows.saved"]), float64(c["view.shared.rows.consumer"])), "ratio"},
		"view.shared_subtrees_per_flush":      {ratio(float64(c["view.shared.subtrees"]), flushes), "count"},
		"exec.rows_scanned_per_delta_row":     {ratio(float64(c["exec.rows.scanned"]), drv), "ratio"},
		"exec.hash_build_rows_per_flush":      {ratio(float64(c["exec.join.hash.build_rows"]), flushes), "count"},
		"exec.index_probe_rows_per_stmt":      {ratio(float64(c["exec.join.index.probe_rows"]), stmts), "count"},
		"rel.apply_us":                        {us(relApply), "us"},
		"rel.publish_us_p50":                  {us(l.publish.pct(0.50)), "us"},
		"rel.publish_us_p99":                  {us(l.publish.pct(0.99)), "us"},
		"rel.snapshot_get_ns":                 {float64(l.snapGet.mean().Nanoseconds()), "ns"},
		"runtime.alloc_bytes_per_stmt":        {ratio(float64(a.allocBytes), float64(a.stmts)), "B"},
		"runtime.allocs_per_stmt":             {ratio(float64(a.allocs), float64(a.stmts)), "count"},
		"runtime.gc_cycles_per_1k_stmts":      {1000 * ratio(float64(a.gcCycles), float64(a.stmts)), "count"},
		"trace.coverage":                      {ratio(float64(covered), float64(b.wall)), "ratio"},
		"trace.overhead":                      {ratio(perB, perA), "ratio"},
	}
	return m
}
