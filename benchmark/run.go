package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"ojv/internal/rel"
)

// samples collects latencies for percentiles.
type samples []time.Duration

// pct returns the p-quantile (nearest rank, 0 for no samples).
func (s samples) pct(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(p*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

// limit bounds one measured run: by time (the benchmark) or by statement
// count (the tests, which need runs that repeat exactly).
type limit struct {
	dur   time.Duration
	stmts int
}

func (l limit) reached(stmts int, elapsed time.Duration) bool {
	if l.stmts > 0 {
		return stmts >= l.stmts
	}
	return elapsed >= l.dur
}

// chunk is how many statements to generate next, at most n.
func (l limit) chunk(n, done int) int {
	if l.stmts > 0 && l.stmts-done < n {
		return l.stmts - done
	}
	return n
}

// runStats is what one measured run observed. Statement generation happens
// between timed segments, so wall covers only calls into the program and
// the client's own bookkeeping around them.
type runStats struct {
	stmts     int
	wall      time.Duration
	stmtLat   samples
	flushLat  samples
	readLat   samples
	visLat    samples
	attempted int64
	failed    int64
	// errs keeps the first few failures for the report.
	errs []string
	// Runtime counters over the timed window.
	allocBytes, allocs, gcCycles uint64
	heapLiveMB                   float64
}

func (st *runStats) fail(format string, args ...any) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds another goroutine's observations into st.
func (st *runStats) merge(o *runStats) {
	st.readLat = append(st.readLat, o.readLat...)
	st.visLat = append(st.visLat, o.visLat...)
	st.attempted += o.attempted
	st.failed += o.failed
	st.errs = append(st.errs, o.errs...)
}

// measure runs the workload under lim and brackets it with the runtime's
// allocation and GC counters; the heap is collected before and measured
// live after. lay is nil for an untraced run.
func measure(e *env, lim limit, lay *layers) *runStats {
	st := &runStats{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	switch e.workload {
	case oltpSync:
		runOLTP(e, lim, lay, st)
	case batchMultiview:
		runBatch(e, lim, lay, st)
	default:
		runServe(e, lim, lay, st)
	}
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.allocs = m1.Mallocs - m0.Mallocs
	st.gcCycles = uint64(m1.NumGC - m0.NumGC)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.heapLiveMB = float64(m1.HeapAlloc) / (1 << 20)
	return st
}

// shows reports whether a point read of s's key shows exactly s's effect.
func shows(s stmt, row rel.Row, found bool) bool {
	if s.row == nil {
		return !found
	}
	return found && row.Equal(s.row)
}

// scanV3 times one full read of V3's current epoch. Only serve_mixed's
// reader counts it among the reads (countRead); the periodic scans of the
// one-client workloads feed view.snapshot_rows_us alone, so their read
// percentiles describe one kind of read.
func scanV3(e *env, st *runStats, lay *layers, countRead bool) {
	t := time.Now()
	rows := e.v3.Snapshot().Rows()
	d := time.Since(t)
	st.attempted++
	if len(rows) == 0 {
		st.fail("V3 snapshot is empty")
	}
	if countRead {
		st.readLat = append(st.readLat, d)
	}
	if lay != nil {
		lay.snapRows.add(d)
	}
}

// readBack pins a fresh snapshot of s's table and checks that it shows s;
// it returns the time the read completed.
func readBack(e *env, s stmt, st *runStats, lay *layers) time.Time {
	t := time.Now()
	row, found := e.db.TableSnapshot(s.table).Get(s.key...)
	done := time.Now()
	st.attempted++
	if !shows(s, row, found) {
		st.fail("read-back of %s %v after commit does not show the statement", s.kind, s.key)
	}
	st.readLat = append(st.readLat, done.Sub(t))
	if lay != nil {
		lay.snapGet.add(done.Sub(t))
	}
	return done
}

// runOLTP is oltp_sync: one client, one synchronous statement at a time
// through Database.Insert/Delete/Update against V3 alone. After every
// statement the client reads its key back from a freshly pinned snapshot
// (the read that makes the write's visibility measurable), and after every
// thousandth it reads all of V3. The traced run drives the same statements
// through the calls Database makes (syncStmt), timing each layer.
func runOLTP(e *env, lim limit, lay *layers, st *runStats) {
	for !lim.reached(st.stmts, st.wall) {
		chunk := e.gen.take(lim.chunk(256, st.stmts))
		t0 := time.Now()
		for _, s := range chunk {
			ts := time.Now()
			var err error
			if lay == nil {
				err = execSync(e.db, s)
			} else {
				err = lay.syncStmt(e, s)
			}
			tr := time.Now()
			st.attempted++
			if err != nil {
				st.fail("%s: %v", s.kind, err)
				st.wall += time.Since(t0)
				return
			}
			if lay != nil {
				lay.stmtDone(tr.Sub(ts))
			}
			e.executed++
			st.stmts++
			st.stmtLat = append(st.stmtLat, tr.Sub(ts))
			st.flushLat = append(st.flushLat, tr.Sub(ts))
			st.visLat = append(st.visLat, readBack(e, s, st, lay).Sub(tr))
			if st.stmts%1000 == 0 {
				scanV3(e, st, lay, false)
			}
			if lim.reached(st.stmts, st.wall+time.Since(t0)) {
				break
			}
		}
		st.wall += time.Since(t0)
		lay.fold(e)
	}
}

// batchGroup is batch_multiview's flush interval in statements.
const batchGroup = 1000

// runBatch is batch_multiview: one client stages the mix into one
// WriteBatch and flushes it after every batchGroup statements, with 16
// views registered. After each flush it reads back every tenth statement
// whose key the group does not touch again, and reads all of V3.
func runBatch(e *env, lim limit, lay *layers, st *runStats) {
	for !lim.reached(st.stmts, st.wall) {
		group := e.gen.take(lim.chunk(batchGroup, st.stmts))
		ret := make([]time.Time, 0, len(group))
		t0 := time.Now()
		for _, s := range group {
			ts := time.Now()
			err := execBatch(e.wb, s)
			tr := time.Now()
			st.attempted++
			if err != nil {
				st.fail("%s: %v", s.kind, err)
				break
			}
			ret = append(ret, tr)
			e.executed++
			st.stmts++
			st.stmtLat = append(st.stmtLat, tr.Sub(ts))
			if lay != nil {
				lay.enqueue.add(tr.Sub(ts))
			}
			if lim.reached(st.stmts, st.wall+time.Since(t0)) {
				break
			}
		}
		tf := time.Now()
		err := e.wb.Flush()
		st.flushLat = append(st.flushLat, time.Since(tf))
		st.attempted++
		if err == nil {
			err = e.wb.Err()
		}
		if err != nil {
			st.fail("flush: %v", err)
			st.wall += time.Since(t0)
			return
		}
		if st.failed > 0 {
			st.wall += time.Since(t0)
			return
		}
		readBackGroup(e, group[:len(ret)], ret, st, lay)
		scanV3(e, st, lay, false)
		st.wall += time.Since(t0)
		lay.fold(e)
	}
}

// readBackGroup checks every tenth statement of a flushed group whose key
// the group does not touch again: the flush must have made exactly that
// statement's effect visible. Visibility latency runs from the statement's
// return to the read that shows it.
func readBackGroup(e *env, group []stmt, ret []time.Time, st *runStats, lay *layers) {
	last := make(map[string]int, len(group))
	for i, s := range group {
		last[s.table+"\x00"+s.enc] = i
	}
	for i := 0; i < len(group); i += 10 {
		s := group[i]
		if last[s.table+"\x00"+s.enc] != i {
			continue
		}
		st.visLat = append(st.visLat, readBack(e, s, st, lay).Sub(ret[i]))
	}
}

// serveChunk is how many statements serve_mixed's writer generates at a
// time; generation pauses the writer, so chunks are large.
const serveChunk = 4096

// runServe is serve_mixed: one writer streams the mix (plus the
// parent/child group) into a WriteBatch{FlushRows: 500, MaintWorkers: 2},
// whose flushes run on the maintenance goroutine; one reader runs a closed
// loop of nine point reads to one full V3 read and, between reads, detects
// when the writer's lineitem inserts become visible.
func runServe(e *env, lim limit, lay *layers, st *runStats) {
	pq := newProbeQueue()
	stop := make(chan struct{})
	rst := &runStats{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveReader(e, pq, stop, rst, lay)
	}()

	for !lim.reached(st.stmts, st.wall) && st.failed == 0 {
		chunk := e.gen.take(lim.chunk(serveChunk, st.stmts))
		t0 := time.Now()
		for _, s := range chunk {
			if s.kind == lineDelete {
				pq.cancel(s.enc)
			}
			ts := time.Now()
			err := execBatch(e.wb, s)
			tr := time.Now()
			st.attempted++
			if err != nil {
				st.fail("%s: %v", s.kind, err)
				break
			}
			if s.kind == lineInsert {
				pq.push(s, tr)
			}
			e.executed++
			st.stmts++
			st.stmtLat = append(st.stmtLat, tr.Sub(ts))
			if lay != nil {
				lay.enqueue.add(tr.Sub(ts))
			}
			if lim.reached(st.stmts, st.wall+time.Since(t0)) {
				break
			}
		}
		st.wall += time.Since(t0)
		if err := e.wb.Err(); err != nil {
			st.fail("async flush: %v", err)
		}
		lay.fold(e)
	}
	tc := time.Now()
	err := e.wb.Close()
	d := time.Since(tc)
	st.wall += d
	if lay != nil {
		lay.closeTime += d
	}
	if err != nil {
		st.fail("final flush: %v", err)
	}
	close(stop)
	wg.Wait()
	st.merge(rst)
	if lay != nil {
		lay.fold(e)
		st.attempted += lay.flushes
		return
	}
	for _, r := range e.ins.batchTracer.Roots() {
		if r.Name() == "view.flush" {
			st.flushLat = append(st.flushLat, r.Duration())
			st.attempted++
		}
	}
}

// serveReader is serve_mixed's reader. After stop (the writer closed the
// batch, so every staged statement is committed) it resolves the remaining
// probes; a probe still invisible then is a lost write.
func serveReader(e *env, pq *probeQueue, stop <-chan struct{}, st *runStats, lay *layers) {
	rng := rand.New(rand.NewSource(e.seed ^ 0x7ead))
	for {
		select {
		case <-stop:
			pq.resolve(e, st, true)
			return
		default:
		}
		if rng.Intn(10) == 0 {
			scanV3(e, st, lay, true)
		} else {
			k := e.readKeys[rng.Intn(len(e.readKeys))]
			t := time.Now()
			snap := e.db.TableSnapshot(k.table)
			if snap != nil {
				snap.Get(k.key...)
			}
			d := time.Since(t)
			st.attempted++
			if snap == nil {
				st.fail("no snapshot of %s", k.table)
			}
			st.readLat = append(st.readLat, d)
			if lay != nil {
				lay.snapGet.add(d)
			}
		}
		pq.resolve(e, st, false)
	}
}

// probe is one lineitem insert whose visibility the reader waits for.
type probe struct {
	enc      string
	key      []rel.Value
	ret      time.Time
	canceled bool
}

// probeQueue holds the writer's pending probes in statement order. The
// writer cancels a probe before it stages a delete of the probed key: the
// insert may then never be visible.
type probeQueue struct {
	mu    sync.Mutex
	q     []probe
	base  int // absolute index of q[0]
	index map[string]int
}

func newProbeQueue() *probeQueue { return &probeQueue{index: make(map[string]int)} }

func (p *probeQueue) push(s stmt, ret time.Time) {
	p.mu.Lock()
	p.index[s.enc] = p.base + len(p.q)
	p.q = append(p.q, probe{enc: s.enc, key: s.key, ret: ret})
	p.mu.Unlock()
}

func (p *probeQueue) cancel(enc string) {
	p.mu.Lock()
	if i, ok := p.index[enc]; ok {
		p.q[i-p.base].canceled = true
	}
	p.mu.Unlock()
}

// resolve checks the oldest pending probes against a freshly pinned
// lineitem snapshot, in order, stopping at the first invisible one: flushes
// commit statements in order, so nothing after it is visible either. It
// looks at the oldest probe alone first, so a pass that finds nothing new
// costs one point read. With final set every probe must be visible.
func (p *probeQueue) resolve(e *env, st *runStats, final bool) {
	for n := 1; ; n = 256 {
		p.mu.Lock()
		pending := append([]probe(nil), p.q[:min(n, len(p.q))]...)
		p.mu.Unlock()
		if len(pending) == 0 {
			return
		}
		snap := e.db.TableSnapshot("lineitem")
		done := 0
		for _, pr := range pending {
			if !pr.canceled {
				if _, found := snap.Get(pr.key...); found {
					st.visLat = append(st.visLat, time.Since(pr.ret))
				} else if final {
					st.fail("lineitem insert %v never became visible", pr.key)
				} else {
					break
				}
			}
			done++
		}
		p.mu.Lock()
		for _, pr := range p.q[:done] {
			delete(p.index, pr.enc)
		}
		p.q = p.q[done:]
		p.base += done
		p.mu.Unlock()
		if done < len(pending) {
			return
		}
	}
}
