package pipeline

import (
	"strings"
	"testing"

	"ojv/internal/rel"
)

// newCat builds part(pk,name) <- item(ik, pk, qty) with 3 parts and 2 items.
func newCat(t *testing.T) *rel.Catalog {
	t.Helper()
	cat := rel.NewCatalog()
	mustCreate := func(name string, cols []rel.Column, key ...string) {
		if _, err := cat.CreateTable(name, cols, key...); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("part", []rel.Column{
		{Name: "pk", Kind: rel.KindInt},
		{Name: "name", Kind: rel.KindString},
	}, "pk")
	mustCreate("item", []rel.Column{
		{Name: "ik", Kind: rel.KindInt},
		{Name: "pk", Kind: rel.KindInt, NotNull: true},
		{Name: "qty", Kind: rel.KindInt},
	}, "ik")
	if err := cat.AddForeignKey("item", []string{"pk"}, "part", []string{"pk"}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := cat.Insert("part", []rel.Row{{rel.Int(i), rel.Str("p")}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 2; i++ {
		if err := cat.Insert("item", []rel.Row{{rel.Int(i), rel.Int(i), rel.Int(10)}}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// checkAccounting asserts the invariant staged = net + coalesced.
func checkAccounting(t *testing.T, q *Queue) {
	t.Helper()
	if got, want := q.StagedRows(), q.Len()+q.CoalescedRows(); got != want {
		t.Fatalf("accounting: staged=%d but net=%d + coalesced=%d = %d",
			got, q.Len(), q.CoalescedRows(), want)
	}
}

func key(vals ...rel.Value) []rel.Value { return vals }

func TestInsertDeleteAnnihilates(t *testing.T) {
	q := New(newCat(t))
	if err := q.Insert("part", []rel.Row{{rel.Int(9), rel.Str("new")}}); err != nil {
		t.Fatal(err)
	}
	got, err := q.Delete("part", [][]rel.Value{key(rel.Int(9))})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(rel.Row{rel.Int(9), rel.Str("new")}) {
		t.Fatalf("delete of pending insert returned %v", got)
	}
	if q.Len() != 0 || len(q.PlanFor(q.DeltaTables())) != 0 {
		t.Fatalf("annihilated pair left net=%d plan=%v", q.Len(), q.PlanFor(q.DeltaTables()))
	}
	if q.Statements() != 2 || q.StagedRows() != 2 || q.CoalescedRows() != 2 {
		t.Fatalf("accounting: stmts=%d staged=%d coalesced=%d", q.Statements(), q.StagedRows(), q.CoalescedRows())
	}
	checkAccounting(t, q)
}

func TestDeleteThenInsertBecomesModify(t *testing.T) {
	cat := newCat(t)
	q := New(cat)
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))}); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert("part", []rel.Row{{rel.Int(3), rel.Str("reborn")}}); err != nil {
		t.Fatal(err)
	}
	steps := q.PlanFor(q.DeltaTables())
	if len(steps) != 1 || steps[0].Op != OpModify {
		t.Fatalf("expected one modify step, got %v", steps)
	}
	old, _ := cat.Table("part").Get(rel.Int(3))
	if !steps[0].OldRows[0].Equal(old) {
		t.Errorf("modify old row = %v, want committed %v", steps[0].OldRows[0], old)
	}
	if !steps[0].NewRows[0].Equal(rel.Row{rel.Int(3), rel.Str("reborn")}) {
		t.Errorf("modify new row = %v", steps[0].NewRows[0])
	}
	checkAccounting(t, q)
}

func TestUpdateComposition(t *testing.T) {
	q := New(newCat(t))
	// update ∘ update composes to one modify with the committed old row.
	for _, name := range []string{"a", "b", "c"} {
		if err := q.Update("part", key(rel.Int(1)), rel.Row{rel.Int(1), rel.Str(name)}); err != nil {
			t.Fatal(err)
		}
	}
	// insert ∘ update stays an insert.
	if err := q.Insert("part", []rel.Row{{rel.Int(7), rel.Str("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Update("part", key(rel.Int(7)), rel.Row{rel.Int(7), rel.Str("y")}); err != nil {
		t.Fatal(err)
	}
	steps := q.PlanFor(q.DeltaTables())
	if len(steps) != 2 {
		t.Fatalf("expected modify+insert steps, got %v", steps)
	}
	var mod, ins *Step
	for i := range steps {
		switch steps[i].Op {
		case OpModify:
			mod = &steps[i]
		case OpInsert:
			ins = &steps[i]
		}
	}
	if mod == nil || !mod.NewRows[0].Equal(rel.Row{rel.Int(1), rel.Str("c")}) {
		t.Errorf("composed update = %+v", mod)
	}
	if ins == nil || !ins.Rows[0].Equal(rel.Row{rel.Int(7), rel.Str("y")}) {
		t.Errorf("updated insert = %+v", ins)
	}
	if q.CoalescedRows() != 3 {
		t.Errorf("coalesced = %d, want 3", q.CoalescedRows())
	}
	checkAccounting(t, q)
}

func TestModifyThenDelete(t *testing.T) {
	q := New(newCat(t))
	if err := q.Update("part", key(rel.Int(3)), rel.Row{rel.Int(3), rel.Str("tmp")}); err != nil {
		t.Fatal(err)
	}
	got, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))})
	if err != nil {
		t.Fatal(err)
	}
	// The observer sees the updated row go; the flush removes the committed one.
	if !got[0].Equal(rel.Row{rel.Int(3), rel.Str("tmp")}) {
		t.Errorf("delete returned %v, want the pending row", got[0])
	}
	steps := q.PlanFor(q.DeltaTables())
	if len(steps) != 1 || steps[0].Op != OpDelete {
		t.Fatalf("expected one delete step, got %v", steps)
	}
	if !steps[0].OldRows[0].Equal(rel.Row{rel.Int(3), rel.Str("p")}) {
		t.Errorf("delete old row = %v, want committed row", steps[0].OldRows[0])
	}
	checkAccounting(t, q)
}

func TestStatementErrors(t *testing.T) {
	q := New(newCat(t))
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"unknown table", func() error { return q.Insert("nope", []rel.Row{{rel.Int(1)}}) }, "unknown table"},
		{"dup vs committed", func() error {
			return q.Insert("part", []rel.Row{{rel.Int(1), rel.Str("dup")}})
		}, "duplicate key"},
		{"dup within statement", func() error {
			return q.Insert("part", []rel.Row{{rel.Int(8), rel.Str("a")}, {rel.Int(8), rel.Str("b")}})
		}, "duplicate key"},
		{"bad fk", func() error {
			return q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(99), rel.Int(1)}})
		}, "foreign key"},
		{"null in not null", func() error {
			return q.Insert("item", []rel.Row{{rel.Int(9), rel.Null, rel.Int(1)}})
		}, "NOT NULL"},
		{"delete missing", func() error {
			_, err := q.Delete("part", [][]rel.Value{key(rel.Int(42))})
			return err
		}, "no row"},
		{"update missing", func() error {
			return q.Update("part", key(rel.Int(42)), rel.Row{rel.Int(42), rel.Str("x")})
		}, "no row"},
		{"update changes key", func() error {
			return q.Update("part", key(rel.Int(1)), rel.Row{rel.Int(2), rel.Str("x")})
		}, "must not change the key"},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Failed statements must leave the queue untouched.
	if q.Statements() != 0 || q.Len() != 0 || q.StagedRows() != 0 {
		t.Fatalf("failed statements staged state: stmts=%d net=%d staged=%d",
			q.Statements(), q.Len(), q.StagedRows())
	}
	// Double-delete of the same key across statements errors the second time.
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))}); err == nil {
		t.Fatal("second delete of same key succeeded")
	}
	// Insert referencing a row pending deletion in this batch fails at enqueue.
	if _, err := q.Delete("item", [][]rel.Value{key(rel.Int(2))}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(2))}); err != nil {
		t.Fatal(err)
	}
	err := q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(2), rel.Int(1)}})
	if err == nil || !strings.Contains(err.Error(), "foreign key") {
		t.Fatalf("insert against pending-deleted parent: %v", err)
	}
}

func TestGetOverlay(t *testing.T) {
	q := New(newCat(t))
	// Committed row visible.
	if row, ok, _ := q.Get("part", key(rel.Int(1))); !ok || !row.Equal(rel.Row{rel.Int(1), rel.Str("p")}) {
		t.Fatalf("committed get = %v %v", row, ok)
	}
	// Pending insert visible.
	if err := q.Insert("part", []rel.Row{{rel.Int(9), rel.Str("new")}}); err != nil {
		t.Fatal(err)
	}
	if row, ok, _ := q.Get("part", key(rel.Int(9))); !ok || !row.Equal(rel.Row{rel.Int(9), rel.Str("new")}) {
		t.Fatalf("pending insert get = %v %v", row, ok)
	}
	// Pending delete hides the committed row.
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Get("part", key(rel.Int(3))); ok {
		t.Fatal("pending delete still visible")
	}
	// Pending update shows the new row.
	if err := q.Update("part", key(rel.Int(1)), rel.Row{rel.Int(1), rel.Str("upd")}); err != nil {
		t.Fatal(err)
	}
	if row, _, _ := q.Get("part", key(rel.Int(1))); !row.Equal(rel.Row{rel.Int(1), rel.Str("upd")}) {
		t.Fatalf("pending update get = %v", row)
	}
}

func TestPlanFKOrdering(t *testing.T) {
	q := New(newCat(t))
	// Stage cross-table deletes and inserts in "wrong" order: the plan must
	// still delete items before parts and insert parts before items.
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete("item", [][]rel.Value{key(rel.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(7), rel.Int(1)}}); err == nil {
		t.Fatal("insert referencing a not-yet-staged parent should fail at enqueue")
	}
	if err := q.Insert("part", []rel.Row{{rel.Int(7), rel.Str("new")}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(7), rel.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	steps := q.PlanFor(q.DeltaTables())
	var order []string
	for _, st := range steps {
		order = append(order, st.Op.String()+":"+st.Table)
	}
	want := []string{"delete:item", "delete:part", "insert:part", "insert:item"}
	if len(order) != len(want) {
		t.Fatalf("plan = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("plan = %v, want %v", order, want)
		}
	}
	checkAccounting(t, q)
}

func TestResetAndEmptyInsert(t *testing.T) {
	q := New(newCat(t))
	if err := q.Insert("part", nil); err != nil {
		t.Fatal(err)
	}
	if q.Statements() != 0 {
		t.Fatal("empty insert counted as a statement")
	}
	if err := q.Insert("part", []rel.Row{{rel.Int(9), rel.Str("x")}}); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	if q.Statements() != 0 || q.Len() != 0 || q.StagedRows() != 0 || q.CoalescedRows() != 0 {
		t.Fatal("reset left state behind")
	}
	if len(q.PlanFor(q.DeltaTables())) != 0 {
		t.Fatal("reset left a plan behind")
	}
}

// TestPrevalidatedGuard pins the fast-flush eligibility rules: the version
// guard trips on any interleaved catalog mutation, and a delete from a
// table whose referencing tables already hold pending entries forces the
// validating flush path.
func TestPrevalidatedGuard(t *testing.T) {
	cat := newCat(t)
	q := New(cat)
	if q.Prevalidated() {
		t.Fatal("empty queue claims prevalidated")
	}
	if err := q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(1), rel.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	if !q.Prevalidated() {
		t.Fatal("untouched catalog: queue should be prevalidated")
	}

	// Any interleaved catalog mutation invalidates the proof.
	if err := cat.Insert("part", []rel.Row{{rel.Int(7), rel.Str("x")}}); err != nil {
		t.Fatal(err)
	}
	if q.Prevalidated() {
		t.Fatal("catalog changed under the queue, still claims prevalidated")
	}
	q.Reset()

	// Leaf deletes keep the fast path: nothing references item.
	if _, err := q.Delete("item", [][]rel.Value{key(rel.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if !q.Prevalidated() {
		t.Fatal("leaf delete should keep the fast path")
	}
	q.Reset()

	// A child insert staged before its parent's delete is the case enqueue
	// validation cannot catch (the parent was visible when the insert was
	// checked); the queue must fall back to the validating flush.
	if err := q.Insert("item", []rel.Row{{rel.Int(9), rel.Int(3), rel.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete("part", [][]rel.Value{key(rel.Int(3))}); err != nil {
		t.Fatal(err)
	}
	if q.Prevalidated() {
		t.Fatal("parent delete after child insert must disable the fast path")
	}
	// Reset restores eligibility.
	q.Reset()
	if err := q.Insert("part", []rel.Row{{rel.Int(8), rel.Str("y")}}); err != nil {
		t.Fatal(err)
	}
	if !q.Prevalidated() {
		t.Fatal("reset queue should regain the fast path")
	}
}

// TestPlanEncKeys checks that every plan step carries the encoded keys its
// rows were staged under, aligned with the step's row slices.
func TestPlanEncKeys(t *testing.T) {
	cat := newCat(t)
	q := New(cat)
	if err := q.Insert("part", []rel.Row{{rel.Int(9), rel.Str("new")}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Update("item", []rel.Value{rel.Int(2)}, rel.Row{rel.Int(2), rel.Int(2), rel.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Delete("item", [][]rel.Value{key(rel.Int(1))}); err != nil {
		t.Fatal(err)
	}
	for _, st := range q.PlanFor(q.DeltaTables()) {
		if len(st.EncKeys) != st.Len() {
			t.Fatalf("step %s:%s has %d enc keys for %d rows", st.Table, st.Op, len(st.EncKeys), st.Len())
		}
		tab := cat.Table(st.Table)
		for i, k := range st.EncKeys {
			var want string
			if st.Op == OpInsert {
				want = tab.KeyOf(st.Rows[i])
			} else {
				want = tab.KeyOf(st.OldRows[i])
			}
			if k != want {
				t.Errorf("step %s:%s key %d: encoded key mismatch", st.Table, st.Op, i)
			}
		}
	}
}
