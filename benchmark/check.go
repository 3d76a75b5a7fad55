package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ojv"
	"ojv/internal/rel"
)

// The output check runs after every run, outside the timed window. It
// fails the run unless
//   - every registered view passes View.Check (full recomputation by two
//     independent oracles), and
//   - the final base tables and views fingerprint-equal a synchronous
//     replay: the same seed's base, the same statements (warm-up included)
//     applied one at a time to the bare catalog, and the same views
//     materialized from scratch over the result.
//
// The replay regenerates the statements from the seed rather than logging
// them, so it checks the program against the stream the generator defines,
// not against the program's own record of it.

// fingerprint is an order-independent digest of a row set: the row count
// and a hash of the sorted row encodings.
type fingerprint struct {
	rows int
	hash string
}

func fingerprintRows(rows []rel.Row) fingerprint {
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = rel.EncodeValues(r...)
	}
	sort.Strings(enc)
	h := sha256.New()
	for _, e := range enc {
		fmt.Fprintf(h, "%d:%s", len(e), e)
	}
	return fingerprint{rows: len(rows), hash: hex.EncodeToString(h.Sum(nil))}
}

// state fingerprints every base table ("table NAME") and view ("view
// NAME") of a database.
type state map[string]fingerprint

func captureState(db *ojv.Database, views []*ojv.View) state {
	s := make(state)
	for _, name := range db.Catalog().TableNames() {
		s["table "+name] = fingerprintRows(db.TableSnapshot(name).Rows())
	}
	for _, v := range views {
		s["view "+v.Name()] = fingerprintRows(v.Snapshot().Rows())
	}
	return s
}

// diffStates lists every entry where got and want disagree.
func diffStates(got, want state) []string {
	var out []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: missing", name))
		case g != w:
			out = append(out, fmt.Sprintf("%s: %d rows (hash %.12s), replay has %d rows (hash %.12s)",
				name, g.rows, g.hash, w.rows, w.hash))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("%s: not in the replay", name))
		}
	}
	sort.Strings(out)
	return out
}

// replayState builds the synchronous replay of the first n statements of
// the workload's stream and fingerprints it.
func replayState(workload string, seed int64, n int) (state, error) {
	withPC := workload == serveMixed
	tdb, err := buildBase(seed, withPC)
	if err != nil {
		return nil, err
	}
	g := newGen(seed, tdb, tdb.Catalog, withPC)
	for i := 0; i < n; i++ {
		s := g.next()
		if err := execCatalog(tdb.Catalog, s); err != nil {
			return nil, fmt.Errorf("replay statement %d (%s): %w", i, s.kind, err)
		}
	}
	db := ojv.WrapCatalog(tdb.Catalog)
	views := make([]*ojv.View, 0)
	for _, d := range viewsFor(workload) {
		v, err := db.CreateView(d.name, d.rel, d.out)
		if err != nil {
			return nil, fmt.Errorf("replay: creating view %s: %w", d.name, err)
		}
		views = append(views, v)
	}
	return captureState(db, views), nil
}

// checkWorkers is how many views are recomputed at once: the checks are
// independent, and the box has two CPUs.
const checkWorkers = 2

// check runs the output check on a finished run. The replay runs first and
// keeps only its fingerprints, so the recomputations that follow run beside
// one database, not two: their cost is dominated by garbage collection over
// the live heap.
func check(e *env) error {
	got := captureState(e.db, e.views)
	want, err := replayState(e.workload, e.seed, e.executed)
	if err != nil {
		return err
	}
	if d := diffStates(got, want); len(d) > 0 {
		return fmt.Errorf("final state differs from the synchronous replay of %d statements: %v", e.executed, d)
	}
	runtime.GC()
	errs := make([]error, len(e.views))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := e.views[i].Check(); err != nil {
					errs[i] = fmt.Errorf("view %s fails recomputation: %w", e.views[i].Name(), err)
				}
			}
		}()
	}
	for i := range e.views {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}
