// Package pipeline is the group-commit write pipeline's staging layer: a
// per-table delta queue that folds many base-table mutations into one net
// row delta per key, so a single maintenance run (one changeset, one
// commit) can amortize its fixed cost across thousands of statements.
//
// The coalescing algebra, per key:
//
//	insert ∘ delete  → (nothing)        the two statements annihilate
//	delete ∘ insert  → modify(old,new)  a keyed replace; ApplyModify's
//	                                    two-pass path maintains it
//	insert ∘ update  → insert(new)      the staged row is replaced
//	modify ∘ update  → modify(old,new') updates compose
//	modify ∘ delete  → delete(old)      the base row is what disappears
//
// where ∘ is "followed by" and old is always the committed (pre-batch)
// base row. The net effect of any statement sequence therefore reduces to
// at most one insert, delete or modify per key — exactly the shapes the
// maintenance layer already handles.
//
// Constraints are validated optimistically at enqueue time against the
// committed tables overlaid with the pending entries: key existence and
// uniqueness, NOT NULL and value kinds, and outbound foreign keys. Inbound
// (RESTRICT) checks and the authoritative re-validation happen at flush,
// when the drained deltas go through the catalog's normal mutation path.
//
// A Queue is not safe for concurrent use; the ojv.WriteBatch facade
// serializes access and owns the flush protocol.
package pipeline

import (
	"fmt"
	"sort"

	"ojv/internal/rel"
)

// Op identifies one flush phase. Flush applies all deletes first (children
// before parents, so RESTRICT checks see referencing rows removed), then
// inserts (parents before children, so outbound foreign keys resolve),
// then modifies (keys never change; last so an update referencing a
// same-batch-inserted key finds it applied — see PlanFor).
type Op uint8

// The flush phases, in application order.
const (
	OpDelete Op = iota
	OpModify
	OpInsert
)

// String renders the op for spans and error messages.
func (o Op) String() string {
	switch o {
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	default:
		return "insert"
	}
}

// Step is one single-table statement of a flush plan. Applying the steps in
// order — base delta first, then one maintenance pass per registered view —
// is a sequence of exactly the single-table updates the maintenance layer
// is proven against, so batching never changes the final view state.
type Step struct {
	Table string
	Op    Op
	// Rows are the inserted rows (OpInsert only).
	Rows []rel.Row
	// Keys are the affected unique keys (OpDelete and OpModify), in the
	// referenced table's key column order.
	Keys [][]rel.Value
	// OldRows are the rows the step removes or replaces (OpDelete and
	// OpModify). A plan carries the committed rows the queue saw at
	// enqueue; applying the step replaces them with the rows the catalog
	// actually removed, which maintenance and undo then use.
	OldRows []rel.Row
	// NewRows pair with OldRows for OpModify.
	NewRows []rel.Row
	// EncKeys are the encoded unique keys of the step's rows, computed once
	// at enqueue; the prevalidated flush path applies them without
	// re-encoding.
	EncKeys []string
}

// Len returns the number of rows the step touches.
func (s Step) Len() int {
	if s.Op == OpInsert {
		return len(s.Rows)
	}
	return len(s.Keys)
}

type entryKind uint8

const (
	entryInsert entryKind = iota
	entryDelete
	entryModify
)

// entry is the net pending mutation for one key of one table.
type entry struct {
	kind entryKind
	// old is the committed base row (entryDelete, entryModify).
	old rel.Row
	// new is the staged row (entryInsert, entryModify).
	new rel.Row
}

// fkCheck is one outbound foreign key with its column mapping resolved:
// srcOffsets[i] is the column of the owning table holding the value of the
// referenced table's i-th key column.
type fkCheck struct {
	refTable   string
	cols       []string
	srcOffsets []int
}

// tableDelta stages the pending entries of one table.
type tableDelta struct {
	t       *rel.Table
	entries map[string]entry
	// order records each key at first staging, for deterministic plans;
	// annihilated keys leave stale slots that the plan skips.
	order []string
	fks   []fkCheck
	// inboundTables names the tables referencing this one, deduplicated;
	// deletes consult it to decide fast-flush eligibility.
	inboundTables []string
}

// Queue coalesces statements into net per-table deltas. Accounting
// invariant, checked by tests and exported to the view.flush.* metrics:
// StagedRows() == Len() + CoalescedRows() after every successful statement.
type Queue struct {
	cat    *rel.Catalog
	tables map[string]*tableDelta
	// touched records table first-use order (plans reorder it by FK topo).
	touched    []string
	statements int
	staged     int
	coalesced  int
	net        int
	// baseVersion is the catalog version at the first staged statement.
	// While the catalog still reports it at flush time, every enqueue-time
	// validation is authoritative and the flush may use the catalog's
	// prevalidated appliers (see Prevalidated).
	baseVersion uint64
	sawVersion  bool
	// fkRevalidate forces the validating flush path: it is set when a
	// delete targets a table whose referencing tables already have pending
	// entries, because an insert or modify staged *before* that delete may
	// reference the deleted key — a violation only the catalog's full FK
	// checks catch (enqueue checks references against the overlay as it was
	// when the referencing statement arrived).
	fkRevalidate bool
	// keyBuf is enqueue-time scratch for encoding foreign-key probes.
	keyBuf []byte
	// valBuf is enqueue-time scratch for reordering foreign-key values.
	valBuf []rel.Value
	// encScratch carries encoded keys from a statement's validation pass to
	// its staging pass, so each row's key encodes once.
	encScratch []string
}

// New returns an empty queue staging against the given catalog.
func New(cat *rel.Catalog) *Queue {
	return &Queue{cat: cat, tables: make(map[string]*tableDelta)}
}

// Statements returns the number of statements staged since the last Reset.
func (q *Queue) Statements() int { return q.statements }

// StagedRows returns the total rows presented by those statements.
func (q *Queue) StagedRows() int { return q.staged }

// CoalescedRows returns the rows folded away by the coalescing algebra.
func (q *Queue) CoalescedRows() int { return q.coalesced }

// Len returns the net pending rows (the entries a flush would apply).
func (q *Queue) Len() int { return q.net }

// Reset discards all pending entries and accounting.
func (q *Queue) Reset() {
	q.tables = make(map[string]*tableDelta)
	q.touched = nil
	q.statements, q.staged, q.coalesced, q.net = 0, 0, 0, 0
	q.sawVersion = false
	q.fkRevalidate = false
}

// Prevalidated reports whether the enqueue-time validations still prove
// every pending entry, in which case a flush may apply the plan through
// the catalog's prevalidated appliers (rel/prevalidated.go) instead of the
// re-validating mutation path. It must be evaluated under the same write
// lock the flush applies under: the proof is "catalog unchanged since the
// first staged statement", witnessed by the version counter, and it only
// holds while that lock keeps other writers out.
func (q *Queue) Prevalidated() bool {
	return q.sawVersion && !q.fkRevalidate && q.cat.Version() == q.baseVersion
}

// markVersion snapshots the catalog version under the first staged
// statement. Statements run under at least a read lock, so the version
// cannot move mid-statement; capturing it at success is equivalent to
// capturing it at validation.
func (q *Queue) markVersion() {
	if !q.sawVersion {
		q.sawVersion = true
		q.baseVersion = q.cat.Version()
	}
}

func (q *Queue) tableDelta(table string) (*tableDelta, error) {
	if td, ok := q.tables[table]; ok {
		return td, nil
	}
	t := q.cat.Table(table)
	if t == nil {
		return nil, fmt.Errorf("pipeline: unknown table %s", table)
	}
	td := &tableDelta{t: t, entries: make(map[string]entry)}
	for _, fk := range t.ForeignKeys() {
		rt := q.cat.Table(fk.RefTable)
		src := make([]int, len(rt.KeyCols()))
		for i, kc := range rt.KeyCols() {
			src[i] = -1
			for j, rc := range fk.RefCols {
				if rt.Schema().IndexOf(fk.RefTable, rc) == kc {
					src[i] = t.Schema().IndexOf(table, fk.Cols[j])
					break
				}
			}
		}
		td.fks = append(td.fks, fkCheck{refTable: fk.RefTable, cols: fk.Cols, srcOffsets: src})
	}
	for _, ref := range q.cat.ReferencingKeys(table) {
		dup := false
		for _, n := range td.inboundTables {
			if n == ref.Table {
				dup = true
				break
			}
		}
		if !dup {
			td.inboundTables = append(td.inboundTables, ref.Table)
		}
	}
	q.tables[table] = td
	q.touched = append(q.touched, table)
	return td, nil
}

// visible reports whether the row with the encoded key exists in the
// batch's view of a table: pending entries overlay the committed contents.
func (q *Queue) visible(table, encodedKey string) bool {
	if td, ok := q.tables[table]; ok {
		if e, ok := td.entries[encodedKey]; ok {
			return e.kind != entryDelete
		}
	}
	return q.cat.Table(table).ContainsKey(encodedKey)
}

// visibleBytes is visible for a key held in the enqueue scratch buffer;
// the in-place map conversions keep the per-statement FK probe free of
// string allocations.
func (q *Queue) visibleBytes(table string, key []byte) bool {
	if td, ok := q.tables[table]; ok {
		if e, ok := td.entries[string(key)]; ok {
			return e.kind != entryDelete
		}
	}
	return q.cat.Table(table).ContainsKeyBytes(key)
}

// checkOutboundFKs validates a staged row's outbound foreign keys against
// the overlaid state, so a reference to a row pending deletion in the same
// batch fails at enqueue rather than at flush.
func (q *Queue) checkOutboundFKs(td *tableDelta, row rel.Row) error {
	for _, fk := range td.fks {
		vals := q.valBuf[:0]
		for _, off := range fk.srcOffsets {
			if off < 0 {
				return fmt.Errorf("pipeline: foreign key %s(%v)->%s does not cover the referenced key",
					td.t.Name(), fk.cols, fk.refTable)
			}
			vals = append(vals, row[off])
		}
		q.valBuf = vals
		q.keyBuf = rel.AppendEncoded(q.keyBuf[:0], vals...)
		if !q.visibleBytes(fk.refTable, q.keyBuf) {
			return fmt.Errorf("pipeline: foreign key %s(%v)->%s violated by staged row %s",
				td.t.Name(), fk.cols, fk.refTable, row)
		}
	}
	return nil
}

// Insert stages an insert statement. The whole statement validates before
// any row stages, so a failed statement leaves the queue untouched.
func (q *Queue) Insert(table string, rows []rel.Row) error {
	if len(rows) == 0 {
		return nil
	}
	td, err := q.tableDelta(table)
	if err != nil {
		return err
	}
	var seen map[string]bool
	if len(rows) > 1 {
		// Single-row statements (the common group-commit shape) skip the
		// intra-statement duplicate set entirely.
		seen = make(map[string]bool, len(rows))
	}
	keys := q.encScratch[:0]
	for _, row := range rows {
		if err := td.t.ValidateRow(row); err != nil {
			return err
		}
		k := td.t.KeyOf(row)
		keys = append(keys, k)
		if seen != nil {
			if seen[k] {
				return fmt.Errorf("pipeline: table %s: duplicate key %v", table, row.Project(td.t.KeyCols()))
			}
			seen[k] = true
		}
		if e, ok := td.entries[k]; ok {
			if e.kind != entryDelete {
				return fmt.Errorf("pipeline: table %s: duplicate key %v", table, row.Project(td.t.KeyCols()))
			}
		} else if td.t.ContainsKey(k) {
			return fmt.Errorf("pipeline: table %s: duplicate key %v", table, row.Project(td.t.KeyCols()))
		}
		if err := q.checkOutboundFKs(td, row); err != nil {
			return err
		}
	}
	q.encScratch = keys
	for i, row := range rows {
		k := keys[i]
		if e, ok := td.entries[k]; ok {
			// delete ∘ insert → modify: the base row still exists, so the
			// net effect is a keyed replace.
			td.entries[k] = entry{kind: entryModify, old: e.old, new: row.Clone()}
			q.coalesced++
		} else {
			td.entries[k] = entry{kind: entryInsert, new: row.Clone()}
			td.order = append(td.order, k)
			q.net++
		}
		q.staged++
	}
	q.markVersion()
	q.statements++
	return nil
}

// Delete stages a delete statement and returns the deleted rows as the
// batch observes them: a pending insert's staged row, a pending modify's
// new row, or the committed base row. Resolution happens here, at enqueue —
// this is what lets the facade return deleted rows without a synchronous
// maintenance round-trip.
func (q *Queue) Delete(table string, keys [][]rel.Value) ([]rel.Row, error) {
	td, err := q.tableDelta(table)
	if err != nil {
		return nil, err
	}
	encoded := make([]string, len(keys))
	seen := make(map[string]bool, len(keys))
	for i, kv := range keys {
		if len(kv) != len(td.t.KeyCols()) {
			return nil, fmt.Errorf("pipeline: table %s: key has %d values, expected %d",
				table, len(kv), len(td.t.KeyCols()))
		}
		k := rel.EncodeValues(kv...)
		if seen[k] {
			return nil, fmt.Errorf("pipeline: table %s: duplicate key %v in delete", table, kv)
		}
		seen[k] = true
		if e, ok := td.entries[k]; ok {
			if e.kind == entryDelete {
				return nil, fmt.Errorf("pipeline: table %s: no row with key %v", table, kv)
			}
		} else if !td.t.ContainsKey(k) {
			return nil, fmt.Errorf("pipeline: table %s: no row with key %v", table, kv)
		}
		encoded[i] = k
	}
	out := make([]rel.Row, 0, len(keys))
	for _, k := range encoded {
		if e, ok := td.entries[k]; ok {
			switch e.kind {
			case entryInsert:
				// insert ∘ delete → nothing: the statements annihilate.
				delete(td.entries, k)
				out = append(out, e.new)
				q.coalesced += 2
				q.net--
			case entryModify:
				// modify ∘ delete → delete(old): the committed row is what
				// the flush must remove; the observer sees the new row go.
				td.entries[k] = entry{kind: entryDelete, old: e.old}
				out = append(out, e.new)
				q.coalesced++
			}
		} else {
			row, _ := td.t.GetEncoded(k)
			td.entries[k] = entry{kind: entryDelete, old: row}
			td.order = append(td.order, k)
			out = append(out, row)
			q.net++
		}
		q.staged++
	}
	// An insert or modify staged before this delete may reference a key the
	// delete removes; only the validating flush path catches that, so the
	// presence of pending entries in any referencing table disables the
	// prevalidated path for the whole batch (conservatively — deletes from
	// leaf tables keep it).
	if !q.fkRevalidate {
		for _, ref := range td.inboundTables {
			if td2, ok := q.tables[ref]; ok && len(td2.entries) > 0 {
				q.fkRevalidate = true
				break
			}
		}
	}
	q.markVersion()
	q.statements++
	return out, nil
}

// Update stages a keyed replace (the key must not change), composing with
// any pending entry for the same key.
func (q *Queue) Update(table string, key []rel.Value, newRow rel.Row) error {
	td, err := q.tableDelta(table)
	if err != nil {
		return err
	}
	if err := td.t.ValidateRow(newRow); err != nil {
		return err
	}
	k := rel.EncodeValues(key...)
	if td.t.KeyOf(newRow) != k {
		return fmt.Errorf("pipeline: table %s: update must not change the key", table)
	}
	if e, ok := td.entries[k]; ok {
		if e.kind == entryDelete {
			return fmt.Errorf("pipeline: table %s: no row with key %v", table, key)
		}
	} else if !td.t.ContainsKey(k) {
		return fmt.Errorf("pipeline: table %s: no row with key %v", table, key)
	}
	if err := q.checkOutboundFKs(td, newRow); err != nil {
		return err
	}
	if e, ok := td.entries[k]; ok {
		switch e.kind {
		case entryInsert:
			td.entries[k] = entry{kind: entryInsert, new: newRow.Clone()}
		case entryModify:
			td.entries[k] = entry{kind: entryModify, old: e.old, new: newRow.Clone()}
		}
		q.coalesced++
	} else {
		cur, _ := td.t.GetEncoded(k)
		td.entries[k] = entry{kind: entryModify, old: cur, new: newRow.Clone()}
		td.order = append(td.order, k)
		q.net++
	}
	q.staged++
	q.markVersion()
	q.statements++
	return nil
}

// Get returns the row with the given key as the batch observes it: pending
// entries overlay the committed table.
func (q *Queue) Get(table string, key []rel.Value) (rel.Row, bool, error) {
	t := q.cat.Table(table)
	if t == nil {
		return nil, false, fmt.Errorf("pipeline: unknown table %s", table)
	}
	k := rel.EncodeValues(key...)
	if td, ok := q.tables[table]; ok {
		if e, ok := td.entries[k]; ok {
			if e.kind == entryDelete {
				return nil, false, nil
			}
			return e.new, true, nil
		}
	}
	row, ok := t.GetEncoded(k)
	return row, ok, nil
}

// PlanFor drains the pending entries of the given tables into an ordered
// flush plan without resetting the queue (the caller resets after the
// flush commits, so a failed flush preserves every pending statement).
// PlanFor(DeltaTables()) is the plan of the whole queue; the concurrent
// flush path calls it once per independent component, and because the
// conflict analysis keeps FK-adjacent delta tables in one component,
// concatenating the component plans in any interleaving is equivalent to
// the whole-queue plan.
//
// Phases: deletes with referencing tables before referenced ones, then
// inserts with referenced tables before referencing ones, then modifies.
// Modifies come last because a staged update may reference a key inserted
// in the same batch (enqueue validated it against the overlay): applying
// the modify after the inserts keeps the foreign key satisfied at every
// step, which both the re-validating flush path and the maintenance
// planner's Section 6 assumption (a freshly inserted parent has no
// referencing rows when its delta is maintained) depend on.
func (q *Queue) PlanFor(tables []string) []Step {
	include := make(map[string]bool, len(tables))
	for _, t := range tables {
		include[t] = true
	}
	topo := q.topoTables()
	sub := topo[:0:0]
	for _, t := range topo {
		if include[t] {
			sub = append(sub, t)
		}
	}
	return q.planOver(sub)
}

// planOver emits the three flush phases over the given topo-ordered tables.
func (q *Queue) planOver(topo []string) []Step {
	var steps []Step
	for i := len(topo) - 1; i >= 0; i-- {
		steps = q.appendStep(steps, topo[i], entryDelete)
	}
	for _, t := range topo {
		steps = q.appendStep(steps, t, entryInsert)
	}
	for _, t := range topo {
		steps = q.appendStep(steps, t, entryModify)
	}
	return steps
}

// DeltaTables returns the names of the tables with net pending entries, in
// sorted order. It is the input to the flush coordinator's conflict
// analysis.
func (q *Queue) DeltaTables() []string {
	var out []string
	for name, td := range q.tables {
		if len(td.entries) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// InboundDeltaTables returns the tables referencing the given table that
// themselves have pending entries. The conflict analysis uses it to keep
// FK-adjacent deltas in one component (a delete's RESTRICT check reads the
// referencing table; an insert's FK check reads the referenced one).
func (q *Queue) InboundDeltaTables(table string) []string {
	td, ok := q.tables[table]
	if !ok {
		return nil
	}
	var out []string
	for _, ref := range td.inboundTables {
		if td2, ok := q.tables[ref]; ok && len(td2.entries) > 0 {
			out = append(out, ref)
		}
	}
	return out
}

// OutboundTables returns the FK-referenced tables of the given table (the
// tables its staged rows' outbound foreign keys probe), whether or not they
// have pending entries.
func (q *Queue) OutboundTables(table string) []string {
	td, ok := q.tables[table]
	if !ok {
		return nil
	}
	var out []string
	for _, fk := range td.fks {
		out = append(out, fk.refTable)
	}
	return out
}

// DropTables discards the pending entries of the given tables, leaving the
// rest of the queue intact. The concurrent flush path calls it after a
// partial failure, for the components that committed: their entries are
// applied and must not replay, while the failed component's statements stay
// pending for a retried flush. Accounting is rebuilt from the surviving
// entries — each counts as one staged row of its own statement, with no
// coalescing credit — preserving the StagedRows() == Len() + CoalescedRows()
// invariant and keeping Statements() > 0 while work remains. The version
// witness is untouched: the committed components bumped the catalog
// version, so Prevalidated() reports false and the retry takes the
// re-validating flush path.
func (q *Queue) DropTables(names []string) {
	for _, n := range names {
		if td, ok := q.tables[n]; ok {
			td.entries = make(map[string]entry)
			td.order = nil
		}
	}
	remaining := 0
	for _, td := range q.tables {
		remaining += len(td.entries)
	}
	q.net = remaining
	q.staged = remaining
	q.coalesced = 0
	q.statements = remaining
}

// appendStep collects one table's entries of one kind, in first-staging key
// order, into a step (when any exist).
func (q *Queue) appendStep(steps []Step, table string, kind entryKind) []Step {
	td := q.tables[table]
	if td == nil || len(td.entries) == 0 {
		return steps
	}
	st := Step{Table: table}
	switch kind {
	case entryDelete:
		st.Op = OpDelete
	case entryModify:
		st.Op = OpModify
	default:
		st.Op = OpInsert
	}
	seen := make(map[string]bool, len(td.order))
	keyCols := td.t.KeyCols()
	for _, k := range td.order {
		if seen[k] {
			continue
		}
		seen[k] = true
		e, ok := td.entries[k]
		if !ok || e.kind != kind {
			continue
		}
		switch kind {
		case entryInsert:
			st.Rows = append(st.Rows, e.new)
		case entryDelete:
			st.Keys = append(st.Keys, []rel.Value(e.old.Project(keyCols)))
			st.OldRows = append(st.OldRows, e.old)
		case entryModify:
			st.Keys = append(st.Keys, []rel.Value(e.old.Project(keyCols)))
			st.OldRows = append(st.OldRows, e.old)
			st.NewRows = append(st.NewRows, e.new)
		}
		st.EncKeys = append(st.EncKeys, k)
	}
	if st.Len() == 0 {
		return steps
	}
	return append(steps, st)
}

// topoTables orders the touched tables so that every table precedes the
// tables referencing it through a foreign key (parents first), stably by
// catalog creation order; tables in a reference cycle fall back to creation
// order.
func (q *Queue) topoTables() []string {
	touched := make(map[string]bool, len(q.tables))
	for name, td := range q.tables {
		if len(td.entries) > 0 {
			touched[name] = true
		}
	}
	names := q.cat.TableNames()
	placed := make(map[string]bool, len(names))
	var out []string
	emit := func(n string) {
		placed[n] = true
		if touched[n] {
			out = append(out, n)
		}
	}
	for len(placed) < len(names) {
		progress := false
		for _, n := range names {
			if placed[n] {
				continue
			}
			ready := true
			for _, fk := range q.cat.ForeignKeys(n) {
				if fk.RefTable != n && !placed[fk.RefTable] {
					ready = false
					break
				}
			}
			if ready {
				emit(n)
				progress = true
			}
		}
		if !progress {
			for _, n := range names {
				if !placed[n] {
					emit(n)
				}
			}
		}
	}
	return out
}
