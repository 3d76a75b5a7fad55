package main

import (
	"fmt"
	"math/rand"
	"sort"

	"ojv/internal/rel"
	"ojv/internal/tpch"
)

// kind is a statement kind of the generated stream.
type kind uint8

const (
	lineInsert kind = iota
	lineDelete
	lineUpdate
	orderUpdate
	partUpdate
	childInsert
	childDelete
	parentUpdate
	numKinds
)

var kindNames = [numKinds]string{"lineitem.insert", "lineitem.delete", "lineitem.update",
	"orders.update", "part.update", "pc_child.insert", "pc_child.delete", "pc_parent.update"}

func (k kind) String() string { return kindNames[k] }

// stmt is one generated statement. Every statement is valid by
// construction: the generator tracks the live keys and current rows of the
// tables it touches, and never deletes a row another row references.
type stmt struct {
	kind  kind
	table string
	key   []rel.Value // target key; for inserts, the new row's key
	enc   string      // encoded key, for probes and coalescing bookkeeping
	row   rel.Row     // inserted row or replacement row; nil for deletes
}

// Parent/child pair of serve_mixed's second view group.
const (
	pcParents  = 1000
	pcChildren = 4000
)

// Recent-key skew: this share of deletes and updates targets a key the run
// itself inserted (lineitem) or updated (orders, part, pc_parent) among the
// last recentWindow such keys.
const (
	recentShare  = 3 // one in recentShare
	recentWindow = 512
)

// keyList is a set of keys with O(1) uniform sampling and removal.
type keyList struct {
	keys []string
	pos  map[string]int
}

func (s *keyList) add(enc string) {
	if s.pos == nil {
		s.pos = make(map[string]int)
	}
	s.pos[enc] = len(s.keys)
	s.keys = append(s.keys, enc)
}

func (s *keyList) remove(enc string) {
	i := s.pos[enc]
	last := s.keys[len(s.keys)-1]
	s.keys[i] = last
	s.pos[last] = i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, enc)
}

func (s *keyList) has(enc string) bool { _, ok := s.pos[enc]; return ok }

func (s *keyList) pick(rng *rand.Rand) string { return s.keys[rng.Intn(len(s.keys))] }

// recentRing remembers the most recent keys a run produced.
type recentRing struct {
	keys []string
	next int
}

func (r *recentRing) push(enc string) {
	if len(r.keys) < recentWindow {
		r.keys = append(r.keys, enc)
		return
	}
	r.keys[r.next] = enc
	r.next = (r.next + 1) % recentWindow
}

// table is the generator's shadow of one base table: its live keys and
// current rows. Tables whose updates move rows across a view predicate
// (orders across V3's date window, part across its price bound) also keep
// the keys split by side, so updates can move rows in both directions
// equally often and the views' sizes stay stationary over a run.
type table struct {
	name   string
	keyLen int
	live   keyList
	rows   map[string]rel.Row
	recent recentRing
	inside func(rel.Row) bool
	sides  [2]keyList // [0] outside, [1] inside
}

func sideOf(in bool) int {
	if in {
		return 1
	}
	return 0
}

func (t *table) add(enc string, row rel.Row) {
	t.live.add(enc)
	t.rows[enc] = row
	if t.inside != nil {
		t.sides[sideOf(t.inside(row))].add(enc)
	}
}

func (t *table) remove(enc string) {
	if t.inside != nil {
		t.sides[sideOf(t.inside(t.rows[enc]))].remove(enc)
	}
	t.live.remove(enc)
	delete(t.rows, enc)
}

func (t *table) replace(enc string, row rel.Row) {
	if t.inside != nil {
		if from, to := sideOf(t.inside(t.rows[enc])), sideOf(t.inside(row)); from != to {
			t.sides[from].remove(enc)
			t.sides[to].add(enc)
		}
	}
	t.rows[enc] = row
}

// pick returns a live key: with probability 1/recentShare one from the
// recent ring (when the ring holds a live one), otherwise a uniform one —
// from a uniformly chosen side, for split tables.
func (t *table) pick(rng *rand.Rand) string {
	if len(t.recent.keys) > 0 && rng.Intn(recentShare) == 0 {
		for try := 0; try < 4; try++ {
			enc := t.recent.keys[rng.Intn(len(t.recent.keys))]
			if t.live.has(enc) {
				return enc
			}
		}
	}
	if t.inside != nil {
		side := rng.Intn(2)
		if len(t.sides[side].keys) == 0 {
			side = 1 - side
		}
		return t.sides[side].pick(rng)
	}
	return t.live.pick(rng)
}

// gen produces the statement stream of a workload from the seed. The
// stream depends only on the seed and on how many statements were drawn,
// never on the program's answers, so a replay regenerates it exactly.
type gen struct {
	rng      *rand.Rand
	tdb      *tpch.DB
	line     *table
	orders   *table
	parts    *table
	parents  *table
	children *table
	// nextChild is the next fresh pc_child key.
	nextChild int64
	// warm lists the kinds still owed to the warm-up prefix.
	warm []kind
}

// V3's o_orderdate window and TPC-H's order-date range, as day numbers.
var (
	v3Lo   = tpch.V3DateLo.AsInt()
	v3Hi   = tpch.V3DateHi.AsInt()
	dateLo = rel.MustDate("1992-01-01").AsInt()
	dateHi = rel.MustDate("1998-08-02").AsInt()
)

// newGen builds the generator over a freshly generated base. withPC adds
// serve_mixed's parent/child statements, one in five of the stream.
func newGen(seed int64, tdb *tpch.DB, cat *rel.Catalog, withPC bool) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), tdb: tdb}
	g.line = loadTable(cat, "lineitem", nil)
	g.orders = loadTable(cat, "orders", func(r rel.Row) bool {
		d := r[2].AsInt()
		return d >= v3Lo && d <= v3Hi
	})
	g.parts = loadTable(cat, "part", func(r rel.Row) bool { return r[3].AsFloat() < 2000 })
	g.warm = []kind{lineInsert, lineDelete, lineUpdate, orderUpdate, partUpdate}
	if withPC {
		g.parents = loadTable(cat, "pc_parent", nil)
		g.children = loadTable(cat, "pc_child", nil)
		g.nextChild = pcChildren + 1
		g.warm = append(g.warm, childInsert, childDelete, parentUpdate)
	}
	return g
}

// loadTable shadows a base table, in key order so the stream is
// reproducible; inside, when set, splits the keys by side.
func loadTable(cat *rel.Catalog, name string, inside func(rel.Row) bool) *table {
	t := cat.Table(name)
	rows := t.Rows()
	encs := make([]string, len(rows))
	byEnc := make(map[string]rel.Row, len(rows))
	for i, r := range rows {
		encs[i] = t.KeyOf(r)
		byEnc[encs[i]] = r
	}
	sort.Strings(encs)
	out := &table{name: name, keyLen: len(t.KeyCols()), rows: make(map[string]rel.Row, len(rows)), inside: inside}
	for _, e := range encs {
		out.add(e, byEnc[e])
	}
	return out
}

// warmupLen is the number of statements of the warm-up prefix: one of each
// kind the workload issues.
func (g *gen) warmupLen() int { return len(g.warm) }

// next draws the next statement.
func (g *gen) next() stmt {
	var k kind
	if len(g.warm) > 0 {
		k, g.warm = g.warm[0], g.warm[1:]
	} else {
		k = g.drawKind()
	}
	switch k {
	case lineInsert:
		row := g.tdb.NewLineitems(1)[0]
		return g.insert(g.line, lineInsert, row)
	case lineDelete:
		return g.delete(g.line, lineDelete, g.line.pick(g.rng))
	case lineUpdate:
		enc := g.line.pick(g.rng)
		row := g.line.rows[enc].Clone()
		qty := 1 + g.rng.Int63n(50)
		row[3] = rel.Int(qty)
		row[4] = rel.Float(float64(qty) * (900 + float64(g.rng.Intn(120000))/100))
		return g.update(g.line, lineUpdate, enc, row)
	case orderUpdate:
		// Move o_orderdate across V3's window: in-window orders leave it,
		// the rest enter it, so customers orphan and de-orphan. pick
		// chooses each side equally often.
		enc := g.orders.pick(g.rng)
		row := g.orders.rows[enc].Clone()
		d := row[2].AsInt()
		if d >= v3Lo && d <= v3Hi {
			outside := (v3Lo - dateLo) + (dateHi - v3Hi)
			x := g.rng.Int63n(outside)
			if x < v3Lo-dateLo {
				d = dateLo + x
			} else {
				d = v3Hi + 1 + (x - (v3Lo - dateLo))
			}
		} else {
			d = v3Lo + g.rng.Int63n(v3Hi-v3Lo+1)
		}
		row[2] = rel.Date(d)
		return g.update(g.orders, orderUpdate, enc, row)
	case partUpdate:
		// Move p_retailprice across 2000, V3's part-side bound.
		enc := g.parts.pick(g.rng)
		row := g.parts.rows[enc].Clone()
		if row[3].AsFloat() < 2000 {
			row[3] = rel.Float(2000 + float64(g.rng.Intn(10000))/100)
		} else {
			row[3] = rel.Float(1900 + float64(g.rng.Intn(9999))/100)
		}
		return g.update(g.parts, partUpdate, enc, row)
	case childInsert:
		key := g.nextChild
		g.nextChild++
		row := rel.Row{rel.Int(key), rel.Int(1 + g.rng.Int63n(pcParents)), rel.Int(g.rng.Int63n(1000))}
		return g.insert(g.children, childInsert, row)
	case childDelete:
		return g.delete(g.children, childDelete, g.children.pick(g.rng))
	default: // parentUpdate
		enc := g.parents.pick(g.rng)
		row := g.parents.rows[enc].Clone()
		row[1] = rel.Int(g.rng.Int63n(1000))
		return g.update(g.parents, parentUpdate, enc, row)
	}
}

// drawKind draws from the shared mix: 55% lineitem inserts, 15% deletes,
// 15% lineitem updates, 10% orders updates, 5% part updates. With the
// parent/child group on, one statement in five goes to that group instead
// (55% child inserts, 30% child deletes, 15% parent updates).
func (g *gen) drawKind() kind {
	if g.children != nil && g.rng.Intn(5) == 0 {
		switch r := g.rng.Intn(100); {
		case r < 55:
			return childInsert
		case r < 85:
			return childDelete
		default:
			return parentUpdate
		}
	}
	switch r := g.rng.Intn(100); {
	case r < 55:
		return lineInsert
	case r < 70:
		return lineDelete
	case r < 85:
		return lineUpdate
	case r < 95:
		return orderUpdate
	default:
		return partUpdate
	}
}

func (g *gen) insert(t *table, k kind, row rel.Row) stmt {
	key := row[:t.keyLen:t.keyLen]
	enc := rel.EncodeValues(key...)
	if t.live.has(enc) {
		panic(fmt.Sprintf("benchmark: generator produced a duplicate %s key", t.name))
	}
	t.add(enc, row)
	t.recent.push(enc)
	return stmt{kind: k, table: t.name, key: key, enc: enc, row: row}
}

func (g *gen) delete(t *table, k kind, enc string) stmt {
	key := t.rows[enc][:t.keyLen:t.keyLen]
	t.remove(enc)
	return stmt{kind: k, table: t.name, key: key, enc: enc}
}

// update replaces a row; lineitem's recent ring holds inserted keys only,
// the other tables' rings hold updated keys.
func (g *gen) update(t *table, k kind, enc string, row rel.Row) stmt {
	t.replace(enc, row)
	if t != g.line {
		t.recent.push(enc)
	}
	return stmt{kind: k, table: t.name, key: row[:t.keyLen:t.keyLen], enc: enc, row: row}
}

// take draws n statements.
func (g *gen) take(n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
