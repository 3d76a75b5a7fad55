package ojv_test

import (
	"errors"
	"testing"

	"ojv"
	"ojv/internal/obs"
)

// TestFlushAfterSameKeySyncWrite: a batch stages an update or delete of
// order 11, then a synchronous statement moves order 11 to another
// customer before the flush. The flush must maintain and undo with the row
// the catalog actually removed, not the stale row seen at enqueue: it
// commits on the first attempt, the view matches recomputation, and the
// live row is what the flush committed.
func TestFlushAfterSameKeySyncWrite(t *testing.T) {
	key := []ojv.Value{ojv.Int(11)}
	staged := ojv.Row{ojv.Int(11), ojv.Int(2), ojv.Float(77), ojv.MustDate("2007-04-16")}
	for _, tc := range []struct {
		name  string
		stage func(wb *ojv.WriteBatch) error
		want  ojv.Row // live orders row after the flush; nil when deleted
	}{
		{"update", func(wb *ojv.WriteBatch) error { return wb.Update("orders", key, staged) }, staged},
		{"delete", func(wb *ojv.WriteBatch) error {
			_, err := wb.Delete("orders", [][]ojv.Value{key})
			return err
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newShopDB(t)
			v := shopView(t, db)
			wb := db.NewWriteBatch()
			if err := tc.stage(wb); err != nil {
				t.Fatal(err)
			}
			moved := ojv.Row{ojv.Int(11), ojv.Int(3), ojv.Float(50), ojv.MustDate("2007-04-16")}
			if err := db.Update("orders", key, moved); err != nil {
				t.Fatal(err)
			}
			if err := wb.Flush(); err != nil {
				t.Fatalf("flush after a same-key synchronous write: %v", err)
			}
			if wb.Err() != nil || wb.PendingStatements() != 0 {
				t.Fatalf("flush left err=%v pending=%d", wb.Err(), wb.PendingStatements())
			}
			if err := v.Check(); err != nil {
				t.Fatal(err)
			}
			got, ok := db.TableSnapshot("orders").Get(key...)
			switch {
			case tc.want == nil && ok:
				t.Fatalf("deleted order 11 still live: %v", got)
			case tc.want != nil && (!ok || !got.Equal(tc.want)):
				t.Fatalf("live order 11 = %v (present %v), want %v", got, ok, tc.want)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSyncRejectionLeavesStateUnchanged: a synchronous statement the
// catalog rejects — duplicate key, RESTRICT violation, missing key — leaves
// every view and base table as it was, opens no changeset (so no rollback
// is counted or traced), and returns the catalog's error wrapped.
func TestSyncRejectionLeavesStateUnchanged(t *testing.T) {
	tracer, metrics := ojv.NewTracer(), ojv.NewMetrics()
	opts := ojv.Options{Tracer: tracer, Metrics: metrics}
	db := newShopDB(t)
	views := []*ojv.View{shopView(t, db, opts)}
	v2, err := db.CreateView("ol",
		ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
			ojv.Eq("orders", "ok", "lineitem", "lok")),
		ojv.Columns("orders.ok", "orders.total", "lineitem.lok", "lineitem.ln", "lineitem.qty"),
		opts)
	if err != nil {
		t.Fatal(err)
	}
	views = append(views, v2)

	// Each case runs the statement through the database and, for the
	// expected error, directly against an identical raw catalog.
	cases := []struct {
		name string
		run  func(db *ojv.Database) error
		raw  func(db *ojv.Database) error
	}{
		{"duplicate insert",
			func(db *ojv.Database) error {
				return db.Insert("customer", []ojv.Row{{ojv.Int(1), ojv.Str("dup")}})
			},
			func(db *ojv.Database) error {
				return db.Catalog().Insert("customer", []ojv.Row{{ojv.Int(1), ojv.Str("dup")}})
			}},
		{"restrict delete",
			func(db *ojv.Database) error {
				_, err := db.Delete("orders", [][]ojv.Value{{ojv.Int(10)}})
				return err
			},
			func(db *ojv.Database) error {
				_, err := db.Catalog().Delete("orders", [][]ojv.Value{{ojv.Int(10)}})
				return err
			}},
		{"update of missing key",
			func(db *ojv.Database) error {
				return db.Update("orders", []ojv.Value{ojv.Int(99)},
					ojv.Row{ojv.Int(99), ojv.Int(1), ojv.Float(1), ojv.MustDate("2007-04-16")})
			},
			func(db *ojv.Database) error {
				_, err := db.Catalog().Update("orders", []ojv.Value{ojv.Int(99)},
					ojv.Row{ojv.Int(99), ojv.Int(1), ojv.Float(1), ojv.MustDate("2007-04-16")})
				return err
			}},
	}
	tables := []string{"customer", "orders", "lineitem"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			preViews := make([]string, len(views))
			for i, v := range views {
				preViews[i] = viewFingerprint(v)
			}
			preTables := make([]string, len(tables))
			for i, name := range tables {
				preTables[i] = snapshotRows(db.TableSnapshot(name).Rows())
			}
			preRollbacks := metrics.Snapshot()["view.rollbacks"]
			tracer.Reset()

			err := tc.run(db)
			if err == nil {
				t.Fatal("statement accepted")
			}
			want := tc.raw(newShopDB(t))
			if want == nil {
				t.Fatal("raw catalog accepted the statement")
			}
			if inner := errors.Unwrap(err); inner == nil || inner.Error() != want.Error() {
				t.Fatalf("error %q does not wrap the catalog's %q", err, want)
			}
			for i, v := range views {
				if got := viewFingerprint(v); got != preViews[i] {
					t.Errorf("view %s changed", v.Name())
				}
			}
			for i, name := range tables {
				if got := snapshotRows(db.TableSnapshot(name).Rows()); got != preTables[i] {
					t.Errorf("table %s changed", name)
				}
			}
			if got := metrics.Snapshot()["view.rollbacks"]; got != preRollbacks {
				t.Errorf("view.rollbacks moved %d → %d", preRollbacks, got)
			}
			if hasSpan(tracer.Roots(), "changeset.rollback") {
				t.Errorf("rejected statement traced a changeset rollback:\n%s", obs.RenderTree(tracer.Roots(), false))
			}
		})
	}
	for _, v := range views {
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
