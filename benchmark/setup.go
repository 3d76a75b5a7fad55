package main

import (
	"fmt"
	"math/rand"

	"ojv"
	"ojv/internal/rel"
	"ojv/internal/tpch"
)

// Workload names.
const (
	oltpSync       = "oltp_sync"
	batchMultiview = "batch_multiview"
	serveMixed     = "serve_mixed"
)

var workloads = []string{oltpSync, batchMultiview, serveMixed}

// scaleFactor is the TPC-H scale of every workload (≈60k lineitems).
const scaleFactor = 0.01

// buildBase generates the seed's base tables into a bare catalog: TPC-H,
// plus serve_mixed's parent/child pair when withPC is set.
func buildBase(seed int64, withPC bool) (*tpch.DB, error) {
	tdb, err := tpch.Generate(tpch.Config{ScaleFactor: scaleFactor, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generating TPC-H: %w", err)
	}
	if !withPC {
		return tdb, nil
	}
	cat := tdb.Catalog
	if _, err := cat.CreateTable("pc_parent", []rel.Column{
		{Name: "pp_key", Kind: rel.KindInt},
		{Name: "pp_val", Kind: rel.KindInt},
	}, "pp_key"); err != nil {
		return nil, err
	}
	if _, err := cat.CreateTable("pc_child", []rel.Column{
		{Name: "pc_key", Kind: rel.KindInt},
		{Name: "pc_pkey", Kind: rel.KindInt, NotNull: true},
		{Name: "pc_val", Kind: rel.KindInt},
	}, "pc_key"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9c))
	parents := make([]rel.Row, pcParents)
	for i := range parents {
		parents[i] = rel.Row{rel.Int(int64(i + 1)), rel.Int(rng.Int63n(1000))}
	}
	if err := cat.Insert("pc_parent", parents); err != nil {
		return nil, err
	}
	children := make([]rel.Row, pcChildren)
	for i := range children {
		children[i] = rel.Row{rel.Int(int64(i + 1)), rel.Int(1 + rng.Int63n(pcParents)), rel.Int(rng.Int63n(1000))}
	}
	if err := cat.Insert("pc_child", children); err != nil {
		return nil, err
	}
	if err := cat.AddForeignKey("pc_child", []string{"pc_pkey"}, "pc_parent", []string{"pp_key"}); err != nil {
		return nil, err
	}
	return tdb, nil
}

// viewDef is one registered view.
type viewDef struct {
	name string
	rel  ojv.Rel
	out  []ojv.ColRef
}

// v3Variant is V3 with its own order-date window and part-price bound.
func v3Variant(name, lo, hi string, price float64) viewDef {
	r := ojv.Table("lineitem").
		Join(ojv.Table("orders").Where(ojv.And(
			ojv.Cmp("orders", "o_orderdate", ojv.OpGe, ojv.MustDate(lo)),
			ojv.Cmp("orders", "o_orderdate", ojv.OpLe, ojv.MustDate(hi)))),
			ojv.Eq("lineitem", "l_orderkey", "orders", "o_orderkey")).
		RightJoin(ojv.Table("customer"), ojv.Eq("customer", "c_custkey", "orders", "o_custkey")).
		FullJoin(ojv.Table("part"), ojv.And(
			ojv.Eq("lineitem", "l_partkey", "part", "p_partkey"),
			ojv.Cmp("part", "p_retailprice", ojv.OpLt, ojv.Float(price))))
	return viewDef{name: name, rel: r, out: tpch.V3Output()}
}

// viewsFor lists a workload's views, V3 first.
func viewsFor(workload string) []viewDef {
	v3 := viewDef{name: "V3", rel: ojv.ExprRel(tpch.V3Expr()), out: tpch.V3Output()}
	switch workload {
	case batchMultiview:
		defs := []viewDef{v3,
			{name: "V3_core", rel: ojv.ExprRel(tpch.V3CoreExpr()), out: tpch.V3Output()},
			{name: "oj_view", rel: ojv.ExprRel(tpch.OJViewExpr()), out: tpch.OJViewOutput()},
		}
		// Price variants keep V3's window, so for lineitem and orders
		// deltas they share V3's ΔV^D prefix below the part join; window
		// variants differ at the orders selection and share nothing.
		for _, p := range []float64{1500, 1800, 1900, 1950, 1990, 2010, 2050} {
			defs = append(defs, v3Variant(fmt.Sprintf("V3_p%.0f", p), "1994-06-01", "1994-12-31", p))
		}
		for i, w := range [][2]string{
			{"1994-01-01", "1994-06-30"}, {"1994-03-01", "1994-09-30"}, {"1994-06-01", "1995-03-31"},
			{"1993-06-01", "1993-12-31"}, {"1995-06-01", "1995-12-31"}, {"1994-06-01", "1994-09-30"},
		} {
			defs = append(defs, v3Variant(fmt.Sprintf("V3_w%d", i), w[0], w[1], 2000))
		}
		return defs
	case serveMixed:
		return []viewDef{v3, {
			name: "pc_view",
			rel: ojv.Table("pc_parent").LeftJoin(ojv.Table("pc_child"),
				ojv.Eq("pc_child", "pc_pkey", "pc_parent", "pp_key")),
			out: ojv.Columns("pc_parent.pp_key", "pc_parent.pp_val", "pc_child.pc_key", "pc_child.pc_val"),
		}}
	default:
		return []viewDef{v3}
	}
}

// instruments are the opt-in observation hooks of a traced run: one tracer
// and registry for the views, one of each for the write batch. All are nil
// in an untraced run, except batchTracer on serve_mixed, whose view.flush
// roots are the only way to time flushes that run on the maintenance
// goroutine (a few spans per flush, no view or executor spans).
type instruments struct {
	viewTracer   *ojv.Tracer
	viewMetrics  *ojv.Metrics
	batchTracer  *ojv.Tracer
	batchMetrics *ojv.Metrics
}

// env is one set-up workload: the database, its views, the statement
// generator positioned after the warm-up prefix, and the write batch of the
// batch workloads.
type env struct {
	workload string
	seed     int64
	db       *ojv.Database
	views    []*ojv.View
	v3       *ojv.View
	gen      *gen
	wb       *ojv.WriteBatch
	ins      instruments
	// executed counts the statements the program has run, warm-up
	// included: the replay regenerates exactly this prefix of the stream.
	executed int
	// readKeys are the point-read targets of serve_mixed's reader, drawn
	// from the initial tables.
	readKeys []readKey
}

type readKey struct {
	table string
	key   []rel.Value
}

// setup generates the base, materializes the workload's views, opens its
// write batch and runs the warm-up: one statement of each kind through the
// workload's own write path (flushed, for the batch workloads) and one read
// of each kind, so plan compilation and other lazy set-up land here and not
// in the timed window.
func setup(workload string, seed int64, traced bool) (*env, error) {
	withPC := workload == serveMixed
	tdb, err := buildBase(seed, withPC)
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload, seed: seed}
	if traced {
		e.ins = instruments{viewTracer: ojv.NewTracer(), viewMetrics: ojv.NewMetrics(),
			batchTracer: ojv.NewTracer(), batchMetrics: ojv.NewMetrics()}
	} else if workload == serveMixed {
		e.ins.batchTracer = ojv.NewTracer()
	}
	e.gen = newGen(seed, tdb, tdb.Catalog, withPC)
	if withPC {
		e.readKeys = sampleReadKeys(seed, e.gen)
	}
	e.db = ojv.WrapCatalog(tdb.Catalog)
	opts := ojv.Options{Tracer: e.ins.viewTracer, Metrics: e.ins.viewMetrics}
	for _, d := range viewsFor(workload) {
		v, err := e.db.CreateView(d.name, d.rel, d.out, opts)
		if err != nil {
			return nil, fmt.Errorf("creating view %s: %w", d.name, err)
		}
		e.views = append(e.views, v)
	}
	e.v3 = e.views[0]

	bo := ojv.BatchOptions{Tracer: e.ins.batchTracer, Metrics: e.ins.batchMetrics}
	switch workload {
	case batchMultiview:
		e.wb = e.db.NewWriteBatch(bo)
	case serveMixed:
		bo.FlushRows, bo.MaintWorkers = 500, 2
		e.wb = e.db.NewWriteBatch(bo)
	}

	warm := e.gen.take(e.gen.warmupLen())
	e.executed = len(warm)
	for _, s := range warm {
		var err error
		if e.wb == nil {
			err = execSync(e.db, s)
		} else {
			err = execBatch(e.wb, s)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.kind, err)
		}
	}
	if e.wb != nil {
		if err := e.wb.Flush(); err != nil {
			return nil, fmt.Errorf("warm-up flush: %w", err)
		}
	}
	if snap := e.db.TableSnapshot("lineitem"); snap == nil {
		return nil, fmt.Errorf("warm-up: no lineitem snapshot")
	} else {
		snap.Get(warm[0].key...)
	}
	_ = e.v3.Snapshot().Rows()
	// Spans and counters of the set-up are not part of the measurement.
	e.ins.viewTracer.Reset()
	e.ins.batchTracer.Reset()
	return e, nil
}

// sampleReadKeys draws serve_mixed's point-read targets: existing lineitem,
// orders and part keys of the initial base, lineitem weighted double.
func sampleReadKeys(seed int64, g *gen) []readKey {
	rng := rand.New(rand.NewSource(seed ^ 0x4ead))
	var out []readKey
	for _, t := range []*table{g.line, g.line, g.orders, g.parts} {
		for i := 0; i < 1024; i++ {
			row := t.rows[t.live.pick(rng)]
			out = append(out, readKey{table: t.name, key: row[:t.keyLen:t.keyLen]})
		}
	}
	return out
}

// execSync runs one statement through the synchronous facade.
func execSync(db *ojv.Database, s stmt) error {
	switch s.kind {
	case lineInsert, childInsert:
		return db.Insert(s.table, []ojv.Row{s.row})
	case lineDelete, childDelete:
		_, err := db.Delete(s.table, [][]ojv.Value{s.key})
		return err
	default:
		return db.Update(s.table, s.key, s.row)
	}
}

// execBatch stages one statement into a write batch.
func execBatch(wb *ojv.WriteBatch, s stmt) error {
	switch s.kind {
	case lineInsert, childInsert:
		return wb.Insert(s.table, []ojv.Row{s.row})
	case lineDelete, childDelete:
		_, err := wb.Delete(s.table, [][]ojv.Value{s.key})
		return err
	default:
		return wb.Update(s.table, s.key, s.row)
	}
}

// execCatalog applies one statement to a bare catalog: the synchronous
// base-table path with no view maintenance, used by the replay.
func execCatalog(cat *rel.Catalog, s stmt) error {
	switch s.kind {
	case lineInsert, childInsert:
		return cat.Insert(s.table, []rel.Row{s.row})
	case lineDelete, childDelete:
		_, err := cat.Delete(s.table, [][]rel.Value{s.key})
		return err
	default:
		_, err := cat.Update(s.table, s.key, s.row)
		return err
	}
}
