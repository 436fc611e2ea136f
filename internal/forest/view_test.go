package forest

import (
	"math/rand"
	"slices"
	"testing"

	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// chooser drives a view scenario: math/rand for the differential test,
// the fuzzer's bytes for FuzzRootedView.
type chooser interface {
	Intn(n int) int
	done() bool
}

type randChooser struct{ *rand.Rand }

func (randChooser) done() bool { return false }

// byteChooser reads choices from fuzz input; once the bytes run out
// every choice is 0 and done reports true.
type byteChooser struct {
	data []byte
	i    int
}

func (b *byteChooser) Intn(n int) int {
	if n <= 1 || b.i >= len(b.data) {
		return 0
	}
	x := int(b.data[b.i])
	b.i++
	if n > 256 && b.i < len(b.data) {
		x = x<<8 | int(b.data[b.i])
		b.i++
	}
	return x % n
}

func (b *byteChooser) done() bool { return b.i >= len(b.data) }

// viewScenario is one differential run: a random multigraph, a partial
// coloring that stays a forest per color, and a view (over every vertex
// or over a random region) that must answer every query exactly as the
// State's BFS does.
type viewScenario struct {
	t    *testing.T
	ch   chooser
	g    *graph.Graph
	st   *State
	k    int
	view *View
	inR  []bool // nil when the view covers every vertex
	reg  []int32
}

func newViewScenario(t *testing.T, ch chooser) *viewScenario {
	n := 2 + ch.Intn(30)
	m := ch.Intn(3 * n)
	edges := make([]graph.Edge, 0, m)
	for range m {
		u := int32(ch.Intn(n))
		v := int32(ch.Intn(n - 1))
		if v >= u {
			v++
		}
		edges = append(edges, graph.E(u, v))
	}
	g := graph.MustNew(n, edges)
	sc := &viewScenario{t: t, ch: ch, g: g, k: 1 + ch.Intn(4)}
	sc.st = newState(g, UseCompact(g) && ch.Intn(2) == 0)
	for id := range g.M() {
		c := int32(ch.Intn(sc.k + 1))
		e := g.Edge(int32(id))
		if int(c) < sc.k && !sc.st.ConnectedInColor(c, e.U, e.V, nil) {
			sc.st.SetColor(int32(id), c)
		}
	}
	sc.view = NewView(sc.st)
	sc.rebuild()
	return sc
}

// rebuild rebuilds the view over every vertex or over a random region
// in random order.
func (sc *viewScenario) rebuild() {
	n := sc.g.N()
	if sc.ch.Intn(2) == 0 {
		sc.inR, sc.reg = nil, nil
		sc.view.Build(nil)
		return
	}
	sc.inR = make([]bool, n)
	sc.reg = sc.reg[:0]
	perm := make([]int32, n)
	for i := range perm {
		j := sc.ch.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = int32(i)
	}
	keep := 1 + sc.ch.Intn(4)
	for i, v := range perm {
		if i == 0 || sc.ch.Intn(4) < keep {
			sc.inR[v] = true
			sc.reg = append(sc.reg, v)
		}
	}
	sc.view.Build(sc.reg)
}

// vertex picks a query endpoint: inside the region for a scoped view.
func (sc *viewScenario) vertex() int32 {
	if sc.inR == nil {
		return int32(sc.ch.Intn(sc.g.N()))
	}
	return sc.reg[sc.ch.Intn(len(sc.reg))]
}

// query compares one path and one connectivity query with the BFS
// reference. A scoped view is queried with a within that is false
// outside its region, as its contract requires.
func (sc *viewScenario) query(c, u, v int32, mask []bool) {
	within := func(x int32) bool {
		return (mask == nil || mask[x]) && (sc.inR == nil || sc.inR[x])
	}
	if mask == nil && sc.inR == nil {
		within = nil
	}
	want := sc.st.PathInColor(c, u, v, within)
	got, ok := sc.view.AppendPath(nil, c, u, v, within)
	if ok != (want != nil) || !slices.Equal(got, want) {
		sc.t.Fatalf("AppendPath(c=%d, %d, %d) = %v, %v; BFS reference %v (region %v, mask %v)",
			c, u, v, got, ok, want, sc.reg, mask)
	}
	if conn, wantConn := sc.view.Connected(c, u, v, within), sc.st.ConnectedInColor(c, u, v, within); conn != wantConn {
		sc.t.Fatalf("Connected(c=%d, %d, %d) = %v; BFS reference %v", c, u, v, conn, wantConn)
	}
}

// apply recolors a batch the way core's Searcher.Apply does: every cut,
// then the State in batch order, then every link.
func (sc *viewScenario) apply(ids, cs []int32) {
	for _, id := range ids {
		sc.view.Cut(id, sc.st.Color(id))
	}
	for i, id := range ids {
		sc.st.SetColor(id, cs[i])
	}
	for i, id := range ids {
		sc.view.Link(id, cs[i])
	}
}

// color picks a palette color or, one time in k+1, Uncolored.
func (sc *viewScenario) color() int32 {
	if c := int32(sc.ch.Intn(sc.k + 1)); int(c) < sc.k {
		return c
	}
	return verify.Uncolored
}

// batch proposes a recoloring chain in the augmenting-sequence shape:
// e_1 takes c_1 and each next edge lies on the path C(e_i, c_i), so
// applied in order the batch closes a cycle before the next step opens
// it. It is applied only if the final coloring is a forest per color.
func (sc *viewScenario) batch() {
	g := sc.g
	ids := []int32{int32(sc.ch.Intn(g.M()))}
	cs := []int32{sc.color()}
	for len(ids) < 4 {
		last := ids[len(ids)-1]
		e := g.Edge(last)
		c := cs[len(cs)-1]
		if c == verify.Uncolored {
			break
		}
		path := sc.st.PathInColor(c, e.U, e.V, nil)
		if len(path) == 0 {
			break
		}
		next := path[sc.ch.Intn(len(path))]
		if slices.Contains(ids, next) {
			break
		}
		ids = append(ids, next)
		cs = append(cs, sc.color())
	}
	colors := sc.st.Colors()
	for i, id := range ids {
		colors[id] = cs[i]
	}
	if verify.PartialForestDecomposition(g, colors, sc.k) != nil {
		return
	}
	sc.apply(ids, cs)
}

func (sc *viewScenario) step() {
	g := sc.g
	switch sc.ch.Intn(8) {
	case 0, 1, 2:
		var mask []bool
		if sc.ch.Intn(3) == 0 {
			mask = make([]bool, g.N())
			for v := range mask {
				mask[v] = sc.ch.Intn(4) != 0
			}
		}
		// Color k is never used, so some queries miss the view's blocks.
		sc.query(int32(sc.ch.Intn(sc.k+1)), sc.vertex(), sc.vertex(), mask)
	case 3, 4:
		if g.M() > 0 {
			sc.batch()
		}
	case 5, 6:
		if g.M() == 0 {
			return
		}
		id := int32(sc.ch.Intn(g.M()))
		c := sc.color()
		e := g.Edge(id)
		if c == verify.Uncolored || !sc.st.ConnectedInColor(c, e.U, e.V, nil) {
			sc.apply([]int32{id}, []int32{c})
		}
	case 7:
		sc.rebuild()
	}
}

// exhaustive compares every (color, u, v) query with the reference.
func (sc *viewScenario) exhaustive() {
	n := int32(sc.g.N())
	for c := int32(0); int(c) <= sc.k; c++ {
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				if sc.inR == nil || (sc.inR[u] && sc.inR[v]) {
					sc.query(c, u, v, nil)
				}
			}
		}
	}
}

// TestViewMatchesBFSReference runs random forest-preserving op
// sequences (single recolors, uncolors, batches that close a cycle
// transiently, rebuilds over random regions) and checks every path and
// connectivity answer against State's BFS, edge order included.
func TestViewMatchesBFSReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		sc := newViewScenario(t, randChooser{rand.New(rand.NewSource(seed))})
		for range 300 {
			sc.step()
		}
		sc.exhaustive()
	}
}

// TestViewDeepPathsAndEvert builds long monochromatic paths and joins
// and splits them repeatedly, so links evert deep trees.
func TestViewDeepPathsAndEvert(t *testing.T) {
	const n = 200
	edges := make([]graph.Edge, 0, n-1)
	for v := int32(1); v < n; v++ {
		edges = append(edges, graph.E(v-1, v))
	}
	g := graph.MustNew(n, edges)
	st := New(g)
	view := NewView(st)
	view.Build(nil)
	r := rand.New(rand.NewSource(1))
	for _, id := range r.Perm(n - 1) {
		view.Link(int32(id), 0)
		st.SetColor(int32(id), 0)
	}
	for range 500 {
		id := int32(r.Intn(n - 1))
		if st.Color(id) == 0 {
			view.Cut(id, 0)
			st.SetColor(id, verify.Uncolored)
		} else {
			st.SetColor(id, 0)
			view.Link(id, 0)
		}
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		want := st.PathInColor(0, u, v, nil)
		got, ok := view.AppendPath(nil, 0, u, v, nil)
		if ok != (want != nil) || !slices.Equal(got, want) {
			t.Fatalf("path %d-%d: got %v,%v want %v", u, v, got, ok, want)
		}
	}
}

// FuzzRootedView drives the differential scenario from fuzz bytes: the
// input picks the graph, the coloring, the view's region and the op
// sequence, and every query must match the BFS reference.
func FuzzRootedView(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := &byteChooser{data: data}
		sc := newViewScenario(t, ch)
		for !ch.done() {
			sc.step()
		}
		sc.exhaustive()
	})
}
