package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// The serving oracle extends the differential harness to snapshot-isolated
// reads: one writer drives random statements and group-commit flushes
// while concurrent readers continuously pin view and base-table snapshots.
// The writer records the fingerprint of every epoch it commits; at the end
// each reader observation must equal the committed epoch it claims to be —
// no torn, mid-flush, or rolled-back state may ever have been visible —
// and the epochs each reader saw must be monotonically non-decreasing.
// Run under -race in CI's race-serving job, the harness also proves the
// read paths are free of data races against maintenance.
//
// The workload mixes synchronous statements with a WriteBatch. Each side
// owns a disjoint key pool per table (the fixture's initial rows seed the
// synchronous pool; each side deletes only keys it owns), so every staged
// statement is still valid when it flushes. Exactness does not depend on
// the split: a same-key synchronous write between enqueue and flush is
// maintained and undone exactly, because the flush works from the rows the
// catalog actually removes. Only the rows WriteBatch.Delete returned at
// enqueue time can be stale.

// servingObs is one reader observation: the pinned epoch and what the
// reader computed from it.
type servingObs struct {
	epoch   uint64
	fp      string
	n       int
	rowsLen int
}

// snapFingerprint renders a row set deterministically.
func snapFingerprint(rows []rel.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// keyPool hands out and reclaims the single-column keys one side of the
// serving workload owns, per table.
type keyPool struct {
	keys map[string][]int64
}

func (p *keyPool) add(table string, k int64) {
	p.keys[table] = append(p.keys[table], k)
}

// take removes and returns up to n random keys of a table.
func (p *keyPool) take(table string, rng *rand.Rand, n int) [][]rel.Value {
	var out [][]rel.Value
	for i := 0; i < n && len(p.keys[table]) > 0; i++ {
		ks := p.keys[table]
		j := rng.Intn(len(ks))
		out = append(out, []rel.Value{rel.Int(ks[j])})
		ks[j] = ks[len(ks)-1]
		p.keys[table] = ks[:len(ks)-1]
	}
	return out
}

// peek returns one random owned key of a table without removing it.
func (p *keyPool) peek(table string, rng *rand.Rand) ([]rel.Value, bool) {
	ks := p.keys[table]
	if len(ks) == 0 {
		return nil, false
	}
	return []rel.Value{rel.Int(ks[rng.Intn(len(ks))])}, true
}

// RunServingSeed executes one deterministic-workload serving run: steps
// random statements (some synchronous, some staged into a WriteBatch and
// group-committed) with readers sampling view and table snapshots the
// whole time. The workload is seed-deterministic; only the interleaving
// with readers varies, and the invariants quantify over every possible
// interleaving.
func RunServingSeed(seed int64, strategy view.Strategy, steps, rows, readers int) error {
	rng := rand.New(rand.NewSource(seed))
	cat, err := fixture.RandCatalog(rng, rows)
	if err != nil {
		return err
	}
	expr := fixture.RandSPOJ(rng)
	db := ojv.WrapCatalog(cat)
	v, err := db.CreateView("sv", ojv.ExprRel(expr), fixture.RandOutput(cat, expr),
		ojv.Options{Strategy: strategy, Parallelism: 1})
	if err != nil {
		return err
	}
	tables := algebra.SortedTables(expr)
	watch := tables[rng.Intn(len(tables))]

	// The fixture's committed rows seed the synchronous pool; the batch
	// pool starts empty and grows from the batch's own inserts.
	syncPool := &keyPool{keys: map[string][]int64{}}
	batchPool := &keyPool{keys: map[string][]int64{}}
	for _, t := range tables {
		tab := cat.Table(t)
		for _, r := range tab.Rows() {
			syncPool.add(t, r[0].AsInt())
		}
	}

	// committedView[epoch] / committedTable[epoch] are written only by the
	// writer — immediately after the statement or flush that published the
	// epoch, before the next one can run — and read only after every reader
	// has joined, so the maps need no lock and are complete by construction.
	committedView := map[uint64]string{}
	committedTable := map[uint64]string{}
	record := func() {
		s := v.Snapshot()
		committedView[s.Epoch()] = snapFingerprint(s.SortedRows())
		if ts := db.TableSnapshot(watch); ts != nil {
			committedTable[ts.Epoch()] = snapFingerprint(ts.Rows())
		}
	}
	record()

	stop := make(chan struct{})
	obsCh := make(chan []servingObs, readers)
	tableObsCh := make(chan []servingObs, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var vObs, tObs []servingObs
			var lastEpoch uint64
			for {
				// Observe before checking stop: even a workload that outruns
				// the scheduler gets at least one observation per reader.
				s := v.Snapshot()
				o := servingObs{
					epoch: s.Epoch(), fp: snapFingerprint(s.SortedRows()),
					n: s.Len(), rowsLen: len(s.Rows()),
				}
				if o.epoch < lastEpoch {
					o.fp = "EPOCH WENT BACKWARDS"
				}
				lastEpoch = o.epoch
				vObs = append(vObs, o)
				if ts := db.TableSnapshot(watch); ts != nil {
					tObs = append(tObs, servingObs{
						epoch: ts.Epoch(), fp: snapFingerprint(ts.Rows()),
						n: ts.Len(), rowsLen: len(ts.Rows()),
					})
				}
				select {
				case <-stop:
					obsCh <- vObs
					tableObsCh <- tObs
					return
				default:
				}
			}
		}()
	}
	finish := func() {
		close(stop)
		wg.Wait()
		close(obsCh)
		close(tableObsCh)
	}

	wb := db.NewWriteBatch()
	nextKey := int64(rows) + 5000
	script := rand.New(rand.NewSource(seed ^ 0x5e71f1ab))
	for step := 0; step < steps; step++ {
		table := tables[script.Intn(len(tables))]
		var desc string
		var stepErr error
		if script.Intn(2) == 0 {
			// Synchronous statement: commits (and publishes) immediately.
			desc, stepErr = servingSyncStep(db, syncPool, script, table, &nextKey)
		} else {
			// Staged statement; every few steps the batch group-commits.
			desc, stepErr = servingBatchStep(wb, batchPool, script, table, &nextKey)
			if stepErr == nil && script.Intn(3) == 0 {
				stepErr = wb.Flush()
			}
		}
		if stepErr != nil {
			finish()
			return fmt.Errorf("step %d (%s) on view %s: %w", step, desc, expr, stepErr)
		}
		record()
	}
	if err := wb.Close(); err != nil {
		finish()
		return fmt.Errorf("close on view %s: %w", expr, err)
	}
	record()
	finish()

	checked := 0
	for vObs := range obsCh {
		for _, o := range vObs {
			want, ok := committedView[o.epoch]
			if !ok {
				return fmt.Errorf("reader pinned view epoch %d that was never committed (view %s)", o.epoch, expr)
			}
			if o.fp != want {
				return fmt.Errorf("reader observed torn state at view epoch %d (view %s)", o.epoch, expr)
			}
			if o.n != o.rowsLen {
				return fmt.Errorf("view epoch %d: Len()=%d but Rows() returned %d rows", o.epoch, o.n, o.rowsLen)
			}
			checked++
		}
	}
	for tObs := range tableObsCh {
		for _, o := range tObs {
			want, ok := committedTable[o.epoch]
			if !ok {
				return fmt.Errorf("reader pinned table epoch %d of %s that was never committed", o.epoch, watch)
			}
			if o.fp != want {
				return fmt.Errorf("reader observed torn state at table epoch %d of %s", o.epoch, watch)
			}
			if o.n != o.rowsLen {
				return fmt.Errorf("table epoch %d: Len()=%d but Rows() returned %d rows", o.epoch, o.n, o.rowsLen)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("serving run finished with zero reader observations (view %s)", expr)
	}
	return v.Check()
}

// servingSyncStep applies one random synchronous statement through the
// Database facade (which maintains the view and publishes epochs), against
// keys the synchronous side owns.
func servingSyncStep(db *ojv.Database, pool *keyPool, rng *rand.Rand, table string, nextKey *int64) (string, error) {
	switch rng.Intn(3) {
	case 0: // insert fresh-keyed rows
		var rows []rel.Row
		for i := 0; i < 1+rng.Intn(3); i++ {
			rows = append(rows, fixture.RandRow(rng, *nextKey))
			pool.add(table, *nextKey)
			*nextKey++
		}
		return "insert", db.Insert(table, rows)
	case 1: // delete owned keys
		keys := pool.take(table, rng, 1+rng.Intn(2))
		if len(keys) == 0 {
			return "delete (no owned keys)", nil
		}
		_, err := db.Delete(table, keys)
		return "delete", err
	default: // update: same key, fresh attribute values
		key, ok := pool.peek(table, rng)
		if !ok {
			return "update (no owned keys)", nil
		}
		j := rel.Value(rel.Int(rng.Int63n(7)))
		if rng.Intn(6) == 0 {
			j = rel.Null
		}
		return "update", db.Update(table, key, rel.Row{key[0], j, rel.Int(rng.Int63n(100))})
	}
}

// servingBatchStep stages one random statement into the write batch,
// against keys the batch owns.
func servingBatchStep(wb *ojv.WriteBatch, pool *keyPool, rng *rand.Rand, table string, nextKey *int64) (string, error) {
	switch rng.Intn(2) {
	case 0: // insert fresh-keyed rows
		var rows []rel.Row
		for i := 0; i < 1+rng.Intn(3); i++ {
			rows = append(rows, fixture.RandRow(rng, *nextKey))
			pool.add(table, *nextKey)
			*nextKey++
		}
		return "batch insert", wb.Insert(table, rows)
	default: // delete keys this batch inserted (staged or already flushed)
		keys := pool.take(table, rng, 1+rng.Intn(2))
		if len(keys) == 0 {
			return "batch delete (no owned keys)", nil
		}
		_, err := wb.Delete(table, keys)
		return "batch delete", err
	}
}
