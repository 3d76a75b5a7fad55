package ojv

import (
	"ojv/internal/pipeline"
)

// Conflict analysis for the concurrent flush path (DESIGN.md §14).
//
// A flush's net deltas touch a set of base tables; a maintenance run of a
// view reads its whole footprint (its base tables plus FK-referenced
// tables its plans probe, Maintainer.Footprint). Two delta tables conflict
// — must flush in one atomic component — when
//
//   - some registered view's footprint contains both (the view's one
//     changeset covers both tables' maintenance, and its reads of either
//     must not observe the other mid-apply), or
//   - they are FK-adjacent and both have pending deltas (an insert's FK
//     validation reads the referenced table; a delete's RESTRICT check
//     reads the referencing one).
//
// The transitive closure of the conflict relation partitions the delta
// tables into independent components. Every view with a non-empty
// footprint∩delta overlap lands in exactly one component (the first rule
// forces its whole overlap into one), and views with an empty overlap have
// nothing to maintain: their plans no-op on unrelated tables, so skipping
// them leaves reader-visible state bit-identical. Components share no
// written table and no view, so any interleaving of their flushes is
// equivalent to the single-component flush.

// flushComponent is one independently committable unit of a write: the
// tables it writes (sorted) and the registered views it maintains (in
// registration order). A synchronous statement is one component, as is a
// whole flush at MaintWorkers ≤ 1; a concurrent flush has one per
// independent group of delta tables.
type flushComponent struct {
	tables []string
	views  []*View
}

// flushComponents partitions the queue's delta tables into independent
// components and assigns each affected view to its component. Caller holds
// db.mu (which also excludes view registration). Component order follows
// the sorted delta-table order of each component's first table, so the
// partition is deterministic for a given queue state.
func (db *Database) flushComponents(q *pipeline.Queue) []flushComponent {
	delta := q.DeltaTables()
	if len(delta) == 0 {
		return nil
	}
	parent := make(map[string]string, len(delta))
	for _, t := range delta {
		parent[t] = t
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Rule 1: a view footprint's delta tables conflict pairwise. Remember
	// each affected view's anchor table to place it in its component later.
	type viewOverlap struct {
		v      *View
		anchor string
	}
	var overlaps []viewOverlap
	for _, name := range db.order {
		v := db.views[name]
		anchor := ""
		for _, t := range v.m.Footprint() {
			if _, ok := parent[t]; !ok {
				continue
			}
			if anchor == "" {
				anchor = t
			} else {
				union(anchor, t)
			}
		}
		if anchor != "" {
			overlaps = append(overlaps, viewOverlap{v: v, anchor: anchor})
		}
	}

	// Rule 2: FK-adjacent delta tables conflict, in both directions. The
	// inbound pass alone would suffice (adjacency is symmetric), but the
	// outbound pass is cheap and keeps the rule locally obvious.
	for _, t := range delta {
		for _, r := range q.InboundDeltaTables(t) {
			union(t, r)
		}
		for _, r := range q.OutboundTables(t) {
			if _, ok := parent[r]; ok {
				union(t, r)
			}
		}
	}

	compIdx := make(map[string]int)
	var comps []flushComponent
	for _, t := range delta {
		root := find(t)
		i, ok := compIdx[root]
		if !ok {
			i = len(comps)
			compIdx[root] = i
			comps = append(comps, flushComponent{})
		}
		comps[i].tables = append(comps[i].tables, t)
	}
	for _, o := range overlaps {
		i := compIdx[find(o.anchor)]
		comps[i].views = append(comps[i].views, o.v)
	}
	return comps
}
