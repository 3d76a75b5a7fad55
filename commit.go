package ojv

import (
	"fmt"
	"strings"

	"ojv/internal/pipeline"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// The write path. Every change to the base tables and views — a
// synchronous Insert/Delete/Update, a whole WriteBatch flush at
// MaintWorkers ≤ 1, or one component of a concurrent flush — commits
// through Database.commit. A step list is a sequence of single-table
// statements (pipeline.Step), the unit the paper's maintenance procedure
// is defined over; commit applies each step's base delta, stages its
// maintenance into one changeset per view, and commits or unwinds the lot.

// stagedView pairs a view with its one changeset for the whole commit.
type stagedView struct {
	v     *View
	cs    *view.Changeset
	stats *MaintStats
}

// statement commits one synchronous statement: a one-step plan over the
// statement's table and every registered view, applied inline under db.mu
// through the same path as a flush (no queue, no coalescing, no goroutine).
// It returns the step as applied, whose OldRows are the rows the catalog
// removed or replaced.
func (db *Database) statement(st pipeline.Step) (pipeline.Step, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := flushComponent{tables: []string{st.Table}, views: db.registered()}
	db.locks.Ensure(c.tables)
	steps := []pipeline.Step{st}
	err := db.commit(nil, &BatchOptions{}, c, steps, false)
	return steps[0], err
}

// registered returns every registered view in registration order. Caller
// holds db.mu, which excludes registration (register takes db.mu before
// viewMu), so the registry is stable without viewMu.
func (db *Database) registered() []*View {
	views := make([]*View, 0, len(db.order))
	for _, name := range db.order {
		views = append(views, db.views[name])
	}
	return views
}

// commit is the only place steps are applied and committed. Caller holds
// db.mu and has Ensured the shards of c.tables. commit acquires those
// shards (sorted order — see rel.TableLocks), then for each step applies
// the base delta and stages maintenance of that single-table delta into
// each of c.views' changesets, evaluating subtrees the views share once
// (view.PlanShared). Once every step has staged it commits the changesets
// — each view publishes its epoch at changeset commit — and publishes the
// epochs of c.tables. On any failure everything unwinds: staged changesets
// in reverse view order, applied base deltas in reverse step order, so the
// touched tables and views return to their state before the call.
//
// Changesets open only after the first base delta applies, so a statement
// the catalog rejects outright opens and rolls back nothing. steps is
// updated in place: applying a delete or modify step replaces its OldRows
// with the rows the catalog removed. Concurrent flush workers call commit
// for disjoint components — safe because components share no table and no
// view, and the catalog's shared counters are atomic. The shard locks are
// defense in depth: a blocked Acquire means a conflict-analysis bug
// degraded to serialization instead of a race.
func (db *Database) commit(parent *Span, opts *BatchOptions, c flushComponent, steps []pipeline.Step, fast bool) error {
	if len(steps) == 0 {
		return nil
	}
	db.locks.Acquire(c.tables)
	defer db.locks.Release(c.tables)
	root := parent.Child("flush.component").
		SetStr("tables", strings.Join(c.tables, ",")).
		SetInt("views", int64(len(c.views))).
		SetInt("steps", int64(len(steps)))
	defer root.End()

	var staged []stagedView
	// modRows tracks per-step progress of a partially applied modify so the
	// unwind can revert exactly the rows that changed.
	modRows := make([]int, len(steps))
	// fail unwinds every staged changeset and the base deltas of steps
	// 0..last, reporting cause against the step that failed.
	fail := func(st *pipeline.Step, last int, cause error) error {
		var rbErr error
		for i := len(staged) - 1; i >= 0; i-- {
			if e := staged[i].v.m.RollbackStaged(staged[i].cs); e != nil && rbErr == nil {
				rbErr = e
			}
		}
		for i := last; i >= 0; i-- {
			if e := db.undoStep(steps[i], modRows[i]); e != nil && rbErr == nil {
				rbErr = e
			}
		}
		if rbErr != nil {
			return fmt.Errorf("ojv: %s %s: %v (rollback also failed: %v)", st.Op, st.Table, cause, rbErr)
		}
		return fmt.Errorf("ojv: %s %s: %w", st.Op, st.Table, cause)
	}

	// Multi-view sharing: with two or more views, each step builds the
	// shared-subexpression DAG across them and evaluates every shared
	// subtree once; the per-view maintenance below consumes through tee
	// handles instead of re-evaluating. The base state a step's shared
	// producers read is constant across the step's views (applyBase runs
	// first; view maintenance mutates only view state), so lazy producer
	// evaluation interleaved with per-view pulls is sound.
	var maints []*view.Maintainer
	if !opts.DisableSharedPlans && len(c.views) > 1 {
		maints = make([]*view.Maintainer, len(c.views))
		for j, v := range c.views {
			maints[j] = v.m
		}
	}

	for i := range steps {
		st := &steps[i]
		span := root.Child("flush.step").
			SetStr("table", st.Table).
			SetStr("op", st.Op.String()).
			SetInt("rows", int64(st.Len()))
		applied, err := db.applyBase(st, fast, &modRows[i])
		if err != nil {
			span.End()
			if applied {
				return fail(st, i, err)
			}
			return fail(st, i-1, err)
		}
		if i == 0 {
			staged = make([]stagedView, len(c.views))
			for j, v := range c.views {
				staged[j] = stagedView{v: v, cs: v.m.Begin()}
			}
		}
		// A modify decomposes into a delete pass and an insert pass, each
		// with its own plan — so up to two shared runs per step.
		var runDel, runIns *view.SharedRun
		if maints != nil {
			switch st.Op {
			case pipeline.OpInsert:
				runIns, err = view.PlanShared(maints, st.Table, true, true, st.Rows, span, opts.Metrics)
			case pipeline.OpDelete:
				runDel, err = view.PlanShared(maints, st.Table, false, true, st.OldRows, span, opts.Metrics)
			case pipeline.OpModify:
				runDel, err = view.PlanShared(maints, st.Table, false, false, st.OldRows, span, opts.Metrics)
				if err == nil {
					runIns, err = view.PlanShared(maints, st.Table, true, false, st.NewRows, span, opts.Metrics)
				}
			}
		}
		for j := 0; j < len(staged) && err == nil; j++ {
			s := &staged[j]
			var stats *MaintStats
			switch st.Op {
			case pipeline.OpInsert:
				stats, err = s.v.m.ApplyInsertShared(s.cs, st.Table, st.Rows, runIns.Bound(s.v.m))
			case pipeline.OpDelete:
				stats, err = s.v.m.ApplyDeleteShared(s.cs, st.Table, st.OldRows, runDel.Bound(s.v.m))
			case pipeline.OpModify:
				stats, err = s.v.m.ApplyModifyShared(s.cs, st.Table, st.OldRows, st.NewRows,
					runDel.Bound(s.v.m), runIns.Bound(s.v.m))
			}
			if err != nil {
				err = fmt.Errorf("maintaining view %s: %w", s.v.name, err)
			} else {
				s.stats = view.AccumulateStats(s.stats, stats)
			}
		}
		// Close force-releases any handle a view never drained, closes each
		// producer exactly once, and publishes the step's sharing metrics.
		if e := runDel.Close(); err == nil {
			err = e
		}
		if e := runIns.Close(); err == nil {
			err = e
		}
		span.End()
		if err != nil {
			return fail(st, i, err)
		}
	}

	commit := root.Child("commit")
	for _, s := range staged {
		s.v.m.CommitStaged(s.cs, s.stats)
		s.v.LastStats = s.stats
	}
	commit.End()
	db.cat.PublishTableEpochs(c.tables)
	return nil
}

// applyBase applies one step's base-table delta, through the prevalidated
// appliers when fast is set (the queue's version guard held) and through
// the catalog's re-validating mutation path otherwise. A delete or modify
// step gets a fresh OldRows holding the rows the catalog removed — never
// the queue's enqueue-time rows, which a synchronous write between enqueue
// and flush may have made stale. The applied result reports whether the
// step made any change that undoStep must revert (for modifies,
// *modApplied records how many rows were updated before the error).
func (db *Database) applyBase(st *pipeline.Step, fast bool, modApplied *int) (applied bool, err error) {
	switch st.Op {
	case pipeline.OpInsert:
		if fast {
			err = db.cat.InsertPrevalidated(st.Table, st.Rows, st.EncKeys)
		} else {
			err = db.cat.Insert(st.Table, st.Rows)
		}
		if err != nil {
			return false, err
		}
	case pipeline.OpDelete:
		var old []rel.Row
		if fast {
			old, err = db.cat.DeletePrevalidated(st.Table, st.Keys, st.EncKeys)
		} else {
			old, err = db.cat.Delete(st.Table, st.Keys)
		}
		if err != nil {
			return false, err
		}
		st.OldRows = old
	case pipeline.OpModify:
		st.OldRows = make([]rel.Row, len(st.Keys))
		for i := range st.Keys {
			if fast {
				st.OldRows[i], err = db.cat.UpdatePrevalidated(st.Table, st.EncKeys[i], st.NewRows[i])
			} else {
				st.OldRows[i], err = db.cat.Update(st.Table, st.Keys[i], st.NewRows[i])
			}
			if err != nil {
				return *modApplied > 0, err
			}
			*modApplied++
		}
	}
	return true, nil
}

// undoStep reverts one applied step's base delta (modApplied rows for a
// partially applied modify).
func (db *Database) undoStep(st pipeline.Step, modApplied int) error {
	switch st.Op {
	case pipeline.OpInsert:
		return db.cat.RollbackInsert(st.Table, st.Rows)
	case pipeline.OpDelete:
		return db.cat.RollbackDelete(st.Table, st.OldRows)
	case pipeline.OpModify:
		for i := modApplied - 1; i >= 0; i-- {
			if err := db.cat.RollbackUpdate(st.Table, st.Keys[i], st.OldRows[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
