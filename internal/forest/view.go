package forest

import (
	"slices"

	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// View answers the path queries C(e, c) in time proportional to the
// path rather than to the monochromatic tree: it keeps, per color, a
// rooted parent-edge forest over a vertex region of a State, and a
// query walks both endpoints up to their lowest common ancestor.
//
// The view covers the forest induced on its region: the c-colored
// edges with both endpoints in the region. Built over every vertex it
// answers exactly what the State's BFS queries answer. Built over a
// region it answers them for queries whose within predicate is false
// outside the region, which is how Algorithm 2 bounds its searches to
// a cluster's ball; the view then reads and writes nothing outside
// that ball.
//
// A View does not observe the State. After Build, every recoloring of
// an edge inside the region must be reported through Cut and Link, or
// the view goes stale. A View is private to one goroutine; views of
// vertex-disjoint regions of one State may be used concurrently.
type View struct {
	st *State
	g  *graph.Graph

	// Region: verts[i] is the vertex with local index i, and local[v]
	// is v's local index iff localEp[v] == regionEp.
	verts    []int32
	local    []int32
	localEp  []uint32
	regionEp uint32

	// colors[k] owns block k of pe/pv: for local vertex i,
	// pe[k*len(verts)+i] is the edge to its parent in that color and
	// pv[...] the parent's local index; both are negative at a root.
	colors []int32
	pe, pv []int32

	// mark stamps the vertices each side of a walk has climbed
	// through; every walk takes two fresh stamps, one per side, and
	// markEp is the last stamp taken.
	mark   []uint32
	markEp uint32
	queue  []int32
	cbuf   []int32
}

// unvisited marks a (color, vertex) slot no build BFS has reached yet;
// like -1 it reads as a root.
const unvisited = -2

// NewView returns an empty view over st; Build gives it a region.
func NewView(st *State) *View { return &View{st: st, g: st.g} }

// Build roots the c-colored forests induced on region, for every color
// present there. A nil region means every vertex. The view keeps region
// order but not the slice itself. Build reads only the incidence lists
// of region vertices and allocates only when the region or its color
// count outgrows every earlier build.
func (w *View) Build(region []int32) {
	n := w.g.N()
	if len(w.local) < n {
		w.local = make([]int32, n)
		w.localEp = make([]uint32, n)
		w.regionEp = 0
	}
	w.regionEp++
	if w.regionEp == 0 {
		clear(w.localEp)
		w.regionEp = 1
	}
	w.verts = w.verts[:0]
	if region == nil {
		for v := int32(0); int(v) < n; v++ {
			w.verts = append(w.verts, v)
		}
	} else {
		w.verts = append(w.verts, region...)
	}
	for i, v := range w.verts {
		w.local[v] = int32(i)
		w.localEp[v] = w.regionEp
	}
	if len(w.mark) < len(w.verts) {
		w.mark = make([]uint32, len(w.verts))
		w.markEp = 0
	}
	w.colors = w.colors[:0]
	w.pe, w.pv = w.pe[:0], w.pv[:0]

	st := w.st
	for i, x := range w.verts {
		w.cbuf = st.appendColorsAt(x, w.cbuf[:0])
		for _, c := range w.cbuf {
			k := w.block(c)
			if k < 0 {
				k = w.addBlock(c)
			}
			base := k * len(w.verts)
			if w.pe[base+i] != unvisited {
				continue
			}
			// BFS x's tree in color c, rooting it at x.
			w.pe[base+i], w.pv[base+i] = -1, -1
			w.queue = append(w.queue[:0], int32(i))
			for head := 0; head < len(w.queue); head++ {
				ly := w.queue[head]
				y := w.verts[ly]
				for _, id := range st.incident(y, c) {
					lz, ok := w.localOf(w.g.Edge(id).Other(y))
					if !ok || w.pe[base+int(lz)] != unvisited {
						continue
					}
					w.pe[base+int(lz)], w.pv[base+int(lz)] = id, ly
					w.queue = append(w.queue, lz)
				}
			}
		}
	}
}

// block returns the index of c's parent block, or -1.
func (w *View) block(c int32) int {
	for k, x := range w.colors {
		if x == c {
			return k
		}
	}
	return -1
}

// addBlock appends an all-roots parent block for color c.
func (w *View) addBlock(c int32) int {
	w.colors = append(w.colors, c)
	b := len(w.verts)
	w.pe = slices.Grow(w.pe, b)
	w.pv = slices.Grow(w.pv, b)
	for range b {
		w.pe = append(w.pe, unvisited)
		w.pv = append(w.pv, unvisited)
	}
	return len(w.colors) - 1
}

func (w *View) localOf(v int32) (int32, bool) {
	if w.localEp[v] != w.regionEp {
		return 0, false
	}
	return w.local[v], true
}

// AppendPath appends the edge IDs of the unique u-v path in color c to
// buf, in the v-to-u order of State.PathInColor, and reports whether
// the path exists. As there, within (nil = everywhere) must hold on the
// path's interior vertices; u and v are always allowed. Endpoints
// outside the region are isolated. On false, buf is returned unchanged.
func (w *View) AppendPath(buf []int32, c, u, v int32, within func(int32) bool) ([]int32, bool) {
	if u == v {
		return buf, true
	}
	k, lu, lv, ok := w.endpoints(c, u, v)
	if !ok {
		return buf, false
	}
	m, ok := w.meet(k, lu, lv, within)
	if !ok {
		return buf, false
	}
	base := k * len(w.verts)
	for x := lv; x != m; x = w.pv[base+int(x)] {
		buf = append(buf, w.pe[base+int(x)])
	}
	mid := len(buf)
	for x := lu; x != m; x = w.pv[base+int(x)] {
		buf = append(buf, w.pe[base+int(x)])
	}
	slices.Reverse(buf[mid:])
	return buf, true
}

// Connected reports whether AppendPath would find a path, without
// materializing it.
func (w *View) Connected(c, u, v int32, within func(int32) bool) bool {
	if u == v {
		return true
	}
	k, lu, lv, ok := w.endpoints(c, u, v)
	if !ok {
		return false
	}
	_, ok = w.meet(k, lu, lv, within)
	return ok
}

func (w *View) endpoints(c, u, v int32) (k int, lu, lv int32, ok bool) {
	if k = w.block(c); k < 0 {
		return 0, 0, 0, false
	}
	if lu, ok = w.localOf(u); !ok {
		return 0, 0, 0, false
	}
	lv, ok = w.localOf(v)
	return k, lu, lv, ok
}

// meet walks lu and lv up their trees in color block k, one step each
// in turn, and returns the local index of their lowest common ancestor.
// A side stops at its root or at an interior vertex outside within;
// the walk fails once both sides have stopped. Alternating keeps the
// cost within twice the path length whenever the path exists.
func (w *View) meet(k int, lu, lv int32, within func(int32) bool) (int32, bool) {
	if w.markEp >= ^uint32(0)-1 {
		clear(w.mark)
		w.markEp = 0
	}
	epU := w.markEp + 1
	epV := w.markEp + 2
	w.markEp = epV
	w.mark[lu], w.mark[lv] = epU, epV
	base := k * len(w.verts)
	a, b := lu, lv
	aLive, bLive := true, true
	for aLive || bLive {
		if aLive {
			if a, aLive = w.climb(base, a, epU, epV, within); a < 0 {
				return ^a, true
			}
		}
		if bLive {
			if b, bLive = w.climb(base, b, epV, epU, within); b < 0 {
				return ^b, true
			}
		}
	}
	return 0, false
}

// climb moves one side of a walk from x to its parent. It returns the
// complemented parent (negative) when the parent carries the other
// side's mark, i.e. the sides met there; otherwise the new position and
// whether the side can keep climbing.
func (w *View) climb(base int, x int32, mine, theirs uint32, within func(int32) bool) (int32, bool) {
	p := w.pv[base+int(x)]
	if p < 0 {
		return x, false
	}
	switch w.mark[p] {
	case theirs:
		return ^p, true
	case mine:
		panic("forest: View parent pointers hold a cycle")
	}
	if within != nil && !within(w.verts[p]) {
		return x, false
	}
	w.mark[p] = mine
	return p, true
}

// Cut removes edge id from the view's forest of color c, its color
// before the recoloring being reported. Edges leaving the region and
// uncolored edges are not in the view, so cutting them is a no-op.
func (w *View) Cut(id, c int32) {
	if c == verify.Uncolored {
		return
	}
	k := w.block(c)
	e := w.g.Edge(id)
	la, okA := w.localOf(e.U)
	lb, okB := w.localOf(e.V)
	if k < 0 || !okA || !okB {
		return
	}
	base := k * len(w.verts)
	for _, x := range [2]int32{la, lb} {
		if w.pe[base+int(x)] == id {
			w.pe[base+int(x)], w.pv[base+int(x)] = -1, -1
			return
		}
	}
}

// Link adds edge id to the view's forest of color c. Its endpoints must
// lie in different trees of that forest, so a batch of recolorings
// that is forest-preserving only as a whole must cut every old color
// before linking any new one. Link walks both endpoints up in turn and
// re-roots (everts) the side that reaches its root first, which then
// hangs from the other endpoint.
func (w *View) Link(id, c int32) {
	if c == verify.Uncolored {
		return
	}
	e := w.g.Edge(id)
	la, okA := w.localOf(e.U)
	lb, okB := w.localOf(e.V)
	if !okA || !okB {
		return
	}
	k := w.block(c)
	if k < 0 {
		k = w.addBlock(c)
	}
	base := k * len(w.verts)
	for a, b, steps := la, lb, 0; ; steps++ {
		if steps > len(w.verts) {
			// A parent chain this long is a cycle, which only an earlier
			// Link of already connected endpoints can close. Fail loudly
			// instead of walking it forever.
			panic("forest: View parent pointers hold a cycle")
		}
		if w.pv[base+int(a)] < 0 {
			w.evert(base, la)
			w.pe[base+int(la)], w.pv[base+int(la)] = id, lb
			return
		}
		if w.pv[base+int(b)] < 0 {
			w.evert(base, lb)
			w.pe[base+int(lb)], w.pv[base+int(lb)] = id, la
			return
		}
		a, b = w.pv[base+int(a)], w.pv[base+int(b)]
	}
}

// evert makes x the root of its tree by reversing the parent pointers
// on its path to the old root.
func (w *View) evert(base int, x int32) {
	ce, cv := int32(-1), int32(-1)
	for cur := x; cur >= 0; {
		i := base + int(cur)
		ne, nv := w.pe[i], w.pv[i]
		w.pe[i], w.pv[i] = ce, cv
		ce, cv = ne, cur
		cur = nv
	}
}
