package ojv_test

import (
	"fmt"
	"testing"

	"ojv"
	"ojv/internal/algebra"
)

// registerShopViews registers n views over the shop tables. Shape
// "identical" gives every view the same three-table expression, so their
// maintenance trees share fully; "filtered" gives view i a distinct
// selection constant, so the trees differ structurally below the root.
// opts, when given, applies to every view.
func registerShopViews(t testing.TB, db *ojv.Database, n int, shape string, opts ...ojv.Options) []*ojv.View {
	t.Helper()
	out := make([]*ojv.View, n)
	for i := 0; i < n; i++ {
		rel := ojv.Table("customer").LeftJoin(
			ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock"))
		if shape == "filtered" {
			rel = ojv.Table("customer").Where(ojv.Cmp("customer", "ck", algebra.OpGt, ojv.Int(int64(i)))).LeftJoin(
				ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
					ojv.Eq("orders", "ok", "lineitem", "lok")),
				ojv.Eq("customer", "ck", "orders", "ock"))
		}
		v, err := db.CreateView(fmt.Sprintf("mv%d", i), rel,
			ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
				"lineitem.lok", "lineitem.ln", "lineitem.qty"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// sharedWorkload drives one mixed statement sequence through a batch.
func sharedWorkload(t testing.TB, wb *ojv.WriteBatch) {
	t.Helper()
	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(20), ojv.Int(1), ojv.Float(10), ojv.MustDate("2007-05-01")},
		{ojv.Int(21), ojv.Int(2), ojv.Float(20), ojv.MustDate("2007-05-02")},
		{ojv.Int(22), ojv.Int(3), ojv.Float(30), ojv.MustDate("2007-05-03")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Insert("lineitem", []ojv.Row{
		{ojv.Int(20), ojv.Int(1), ojv.Int(5)},
		{ojv.Int(21), ojv.Int(1), ojv.Int(6)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Update("orders", []ojv.Value{ojv.Int(21)},
		ojv.Row{ojv.Int(21), ojv.Int(2), ojv.Float(99), ojv.MustDate("2007-05-04")}); err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Delete("lineitem", [][]ojv.Value{{ojv.Int(20), ojv.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFlushIdentity is the tentpole acceptance: K views sharing
// their maintenance trees are flushed through one shared evaluation per
// subtree, the final state is bit-identical to the per-view path, and the
// producer/consumer row accounting balances (Σ consumer = producer +
// saved, with saved > 0 for K > 1).
func TestSharedFlushIdentity(t *testing.T) {
	for _, shape := range []string{"identical", "filtered"} {
		t.Run(shape, func(t *testing.T) {
			const K = 4
			dbShared := newShopDB(t)
			vShared := registerShopViews(t, dbShared, K, shape)
			dbPlain := newShopDB(t)
			vPlain := registerShopViews(t, dbPlain, K, shape)

			metrics := ojv.NewMetrics()
			wbShared := dbShared.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})
			wbPlain := dbPlain.NewWriteBatch(ojv.BatchOptions{DisableSharedPlans: true})
			sharedWorkload(t, wbShared)
			sharedWorkload(t, wbPlain)

			for i := range vShared {
				if got, want := viewFingerprint(vShared[i]), viewFingerprint(vPlain[i]); got != want {
					t.Errorf("view %d: shared flush state differs from per-view flush", i)
				}
				if err := vShared[i].Check(); err != nil {
					t.Fatal(err)
				}
			}

			snap := metrics.Snapshot()
			produced := snap["view.shared.rows.producer"]
			consumed := snap["view.shared.rows.consumer"]
			saved := snap["view.shared.rows.saved"]
			if snap["view.shared.subtrees"] == 0 {
				t.Fatal("no shared subtrees detected across views with a common prefix")
			}
			if consumed != produced+saved {
				t.Fatalf("row identity broken: Σ consumer %d != producer %d + saved %d",
					consumed, produced, saved)
			}
			if produced > 0 && saved == 0 {
				t.Fatalf("no rows saved across %d views (produced=%d)", K, produced)
			}
			if err := wbShared.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wbPlain.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedSyncIdentity: synchronous statements commit through the same
// path as flushes, so over two same-shape views they evaluate the shared
// ΔV^D subtrees once. The same statement stream runs through one database
// holding both views and through two single-view databases, where sharing
// is impossible; the view fingerprints must be bit-identical after every
// statement.
func TestSharedSyncIdentity(t *testing.T) {
	tracer := ojv.NewTracer()
	dbShared := newShopDB(t)
	shared := registerShopViews(t, dbShared, 2, "identical", ojv.Options{Tracer: tracer})
	dbs := []*ojv.Database{newShopDB(t), newShopDB(t)}
	single := []*ojv.View{
		registerShopViews(t, dbs[0], 1, "identical")[0],
		registerShopViews(t, dbs[1], 1, "identical")[0],
	}
	order := func(ok, ck int64, total float64) ojv.Row {
		return ojv.Row{ojv.Int(ok), ojv.Int(ck), ojv.Float(total), ojv.MustDate("2007-05-01")}
	}
	stmts := []func(db *ojv.Database) error{
		func(db *ojv.Database) error {
			return db.Insert("orders", []ojv.Row{order(20, 1, 10), order(21, 2, 20), order(22, 3, 30)})
		},
		func(db *ojv.Database) error {
			return db.Insert("lineitem", []ojv.Row{
				{ojv.Int(20), ojv.Int(1), ojv.Int(5)}, {ojv.Int(21), ojv.Int(1), ojv.Int(6)}})
		},
		func(db *ojv.Database) error { return db.Update("orders", []ojv.Value{ojv.Int(21)}, order(21, 3, 99)) },
		func(db *ojv.Database) error {
			_, err := db.Delete("lineitem", [][]ojv.Value{{ojv.Int(20), ojv.Int(1)}, {ojv.Int(10), ojv.Int(1)}})
			return err
		},
		func(db *ojv.Database) error {
			return db.Insert("customer", []ojv.Row{{ojv.Int(4), ojv.Str("dee")}})
		},
		func(db *ojv.Database) error {
			return db.Update("customer", []ojv.Value{ojv.Int(2)}, ojv.Row{ojv.Int(2), ojv.Str("rob")})
		},
		func(db *ojv.Database) error {
			_, err := db.Delete("orders", [][]ojv.Value{{ojv.Int(20)}, {ojv.Int(22)}})
			return err
		},
	}
	for i, stmt := range stmts {
		if err := stmt(dbShared); err != nil {
			t.Fatalf("statement %d on the shared database: %v", i, err)
		}
		for j, db := range dbs {
			if err := stmt(db); err != nil {
				t.Fatalf("statement %d on single-view database %d: %v", i, j, err)
			}
			if got, want := viewFingerprint(shared[j]), viewFingerprint(single[j]); got != want {
				t.Fatalf("statement %d: view %d differs from its single-view twin\n--- shared ---\n%s\n--- single ---\n%s",
					i, j, got, want)
			}
		}
	}
	for _, v := range shared {
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if !hasSpan(tracer.Roots(), "exec.shared.consume") {
		t.Fatal("no view consumed a shared subtree: synchronous statements bypassed PlanShared")
	}
}

// hasSpan reports whether any span in the forest has the given name.
func hasSpan(spans []*ojv.Span, name string) bool {
	for _, s := range spans {
		if s.Name() == name || hasSpan(s.Children(), name) {
			return true
		}
	}
	return false
}

// TestSharedFlushSingleView: with one registered view the sharing layer
// stays out of the way entirely — no shared subtrees, no producer spans —
// so the single-view flush path (and its golden trace) is unchanged.
func TestSharedFlushSingleView(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	metrics := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})
	sharedWorkload(t, wb)
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Snapshot()["view.shared.subtrees"]; n != 0 {
		t.Fatalf("single-view flush built %d shared subtrees", n)
	}
}

// TestSharedPlanRebuildOnRegistryChange covers plan-cache invalidation
// around register/drop between flushes: the shared DAG is rebuilt from the
// live registry each flush, so a dropped view's subtrees vanish, and a new
// view reusing the dropped view's name — with a different definition —
// must get its own structural keys, never the stale tree.
func TestSharedPlanRebuildOnRegistryChange(t *testing.T) {
	db := newShopDB(t)
	views := registerShopViews(t, db, 2, "identical")
	metrics := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})

	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(30), ojv.Int(1), ojv.Float(11), ojv.MustDate("2007-06-01")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFirst := metrics.Snapshot()["view.shared.subtrees"]
	if afterFirst == 0 {
		t.Fatal("first flush: identical views shared nothing")
	}

	// Drop mv1 and reuse its name for a structurally different view (a
	// two-table join). A stale key for the old mv1 tree must not bind the
	// new view's plan to the old producer shape.
	if !db.DropView("mv1") {
		t.Fatal("DropView(mv1) found nothing")
	}
	if db.View("mv1") != nil {
		t.Fatal("mv1 still registered after drop")
	}
	vNew, err := db.CreateView("mv1",
		ojv.Table("customer").LeftJoin(ojv.Table("orders"),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total"))
	if err != nil {
		t.Fatal(err)
	}

	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(31), ojv.Int(2), ojv.Float(12), ojv.MustDate("2007-06-02")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Both surviving views must be exactly right (Check recomputes from
	// the base tables) — an aliased subtree would corrupt one of them.
	if err := views[0].Check(); err != nil {
		t.Fatalf("mv0 after registry change: %v", err)
	}
	if err := vNew.Check(); err != nil {
		t.Fatalf("new mv1 after name reuse: %v", err)
	}

	// A view registered between flushes joins the next DAG: add a twin of
	// mv0 and require fresh sharing on the following flush.
	before := metrics.Snapshot()["view.shared.subtrees"]
	vTwin, err := db.CreateView("mv2",
		ojv.Table("customer").LeftJoin(
			ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
			"lineitem.lok", "lineitem.ln", "lineitem.qty"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(32), ojv.Int(3), ojv.Float(13), ojv.MustDate("2007-06-03")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := metrics.Snapshot()["view.shared.subtrees"]; after <= before {
		t.Fatalf("newly registered twin did not join the shared DAG (subtrees %d → %d)", before, after)
	}
	for _, v := range []*ojv.View{views[0], vNew, vTwin} {
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}
