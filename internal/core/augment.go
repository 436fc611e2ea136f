// Package core implements the paper's primary contribution: local
// augmenting sequences for list forest decomposition (Section 3), the CUT
// load-balancing procedures (Section 4.1), the network-decomposition
// driven Algorithm 2 (Section 4), diameter reduction (Proposition 2.4),
// vertex-color-splitting (Theorem 4.9), and the star-forest
// decompositions of Section 5 and Theorem 2.3.
package core

import (
	"fmt"

	"nwforest/internal/forest"
	"nwforest/internal/graph"
	"nwforest/internal/verify"
)

// Step is one element (e_i, c_i) of an augmenting sequence.
type Step struct {
	Edge  int32
	Color int32
}

// Sequence is an augmenting sequence w.r.t. a partial list forest
// decomposition: its first edge is uncolored, each subsequent edge lies on
// the monochromatic path closed by recoloring its predecessor, and the
// last recoloring closes no path (conditions (A1)-(A5) of the paper).
type Sequence []Step

// SearchStats instruments FindAugmenting for the Figure 1 / Figure 2
// experiments.
type SearchStats struct {
	// GrowthSizes[i] is |E_i|, the size of the explored edge set after
	// iteration i of Algorithm 1 (frontier expansions).
	GrowthSizes []int
	// Length is the length of the returned sequence (0 if none).
	Length int
	// Radius is the maximum hop distance from the start edge to any edge
	// of the returned sequence.
	Radius int
	// Visited is the number of distinct edges explored.
	Visited int
}

// searchNode records how an edge entered the search: it lies on
// C(parentEdge, color), where color is also the edge's current color.
type searchNode struct {
	parentEdge int32 // -1 for the start edge
	color      int32
}

// Searcher runs Algorithm 1 searches over one forest.State, reusing flat
// per-edge and per-vertex scratch across calls. One decomposition issues
// a search per uncolored edge, so hoisting the visit maps out of the
// call is most of the end-to-end allocation profile.
//
// Path queries go to a forest.View, which answers C(e, c) in time
// proportional to the path. The view is built on a search's first query
// and kept in step by Searcher.Apply, so a Searcher's State must change
// only through its Apply while the Searcher is in use; a Searcher made
// after any other change sees it. By default the view covers every
// vertex; ScopeView narrows it to the region bounding a run of searches.
type Searcher struct {
	st *forest.State
	g  *graph.Graph

	// view answers the path queries. viewRegion is the region set by
	// ScopeView, nil for a view over every vertex; viewBuilt says the
	// view reflects st over that region.
	view       *forest.View
	viewRegion []int32
	viewBuilt  bool
	// path is the reused buffer the view's paths are written into;
	// onPath[id] == epoch marks the edges of shortCircuit's current path.
	path   []int32
	onPath []uint32

	// Per-edge search state, epoch-stamped: edge y is in the current
	// search iff viaEpoch[y] == epoch, and viaNode[y] then records how
	// it was reached.
	viaEpoch []uint32
	viaNode  []searchNode
	queue    []int32
	epoch    uint32

	// seqRadius scratch, per vertex.
	seen     []uint32
	needed   []uint32
	dist     []int32
	bfsQueue []int32
}

// NewSearcher returns a Searcher over st's graph.
func NewSearcher(st *forest.State) *Searcher {
	g := st.Graph()
	return &Searcher{
		st:       st,
		g:        g,
		view:     forest.NewView(st),
		viaEpoch: make([]uint32, g.M()),
		onPath:   make([]uint32, g.M()),
		viaNode:  make([]searchNode, g.M()),
		seen:     make([]uint32, g.N()),
		needed:   make([]uint32, g.N()),
		dist:     make([]int32, g.N()),
	}
}

func (s *Searcher) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 { // wrapped: restamp so stale marks cannot collide
		clear(s.viaEpoch)
		clear(s.onPath)
		clear(s.seen)
		clear(s.needed)
		s.epoch = 1
	}
	return s.epoch
}

// ScopeView bounds the path view to region: the following searches
// must pass a withinPath that holds exactly on region, and st may change
// only through s.Apply until the next ScopeView. The view is built on
// the first query, so a region whose searches never run costs nothing.
// A nil region returns to a view over every vertex. Algorithm 2 scopes
// each cluster's searches to its (R+R') ball, which keeps every view
// read and write inside the cluster's footprint.
func (s *Searcher) ScopeView(region []int32) {
	s.viewRegion, s.viewBuilt = region, false
}

// pathView returns the view for a search bounded by within, and the
// bound left for the view to check: none when the view is scoped, as
// its region is the bound. An unbounded search leaves any scope for a
// view over every vertex.
func (s *Searcher) pathView(within func(int32) bool) (*forest.View, func(int32) bool) {
	if within == nil && s.viewRegion != nil {
		s.viewRegion, s.viewBuilt = nil, false
	}
	if !s.viewBuilt {
		s.view.Build(s.viewRegion)
		s.viewBuilt = true
	}
	if s.viewRegion != nil {
		return s.view, nil
	}
	return s.view, within
}

// FindAugmenting runs Algorithm 1 from the uncolored edge start: a BFS
// over edges where exploring edge x with candidate color c follows the
// monochromatic path C(x, c). It terminates when some (x, c) has
// C(x, c) = empty, yielding an almost augmenting sequence, which is then
// short-circuited (Proposition 3.4) into an augmenting sequence.
//
//   - palettes[e] lists the usable colors of edge e (condition (A5));
//   - withinSearch bounds the region whose edges may join the sequence
//     (N^{R'}(e) in Theorem 3.2); nil means unbounded;
//   - withinPath bounds the region monochromatic paths may traverse
//     (C” in Algorithm 2); nil means unbounded;
//   - maxVisited caps the explored edge count (0 = no cap).
//
// It returns nil if no augmenting sequence was found under these bounds.
func (s *Searcher) FindAugmenting(palettes [][]int32, start int32,
	withinSearch, withinPath func(int32) bool, maxVisited int) (Sequence, SearchStats) {

	var stats SearchStats
	st := s.st
	if st.Color(start) != verify.Uncolored {
		panic(fmt.Sprintf("core: FindAugmenting from colored edge %d", start))
	}
	g := s.g
	view, pathWithin := s.pathView(withinPath)
	ep := s.nextEpoch()
	s.viaEpoch[start] = ep
	s.viaNode[start] = searchNode{parentEdge: -1, color: -1}
	visited := 1
	s.queue = append(s.queue[:0], start)
	frontierEnd := 1 // boundary of the current BFS layer, for stats

	for head := 0; head < len(s.queue); head++ {
		if head == frontierEnd {
			stats.GrowthSizes = append(stats.GrowthSizes, len(s.queue))
			frontierEnd = len(s.queue)
		}
		x := s.queue[head]
		e := g.Edge(x)
		cur := st.Color(x)
		for _, c := range palettes[x] {
			if c == cur {
				continue
			}
			path, ok := view.AppendPath(s.path[:0], c, e.U, e.V, pathWithin)
			s.path = path
			if !ok {
				// Almost augmenting sequence found; backtrack the chain.
				seq := s.backtrack(x, c)
				seq = s.shortCircuit(seq, pathWithin)
				stats.Visited = visited
				stats.Length = len(seq)
				stats.Radius = s.seqRadius(seq)
				return seq, stats
			}
			for _, y := range path {
				if s.viaEpoch[y] == ep {
					continue
				}
				ye := g.Edge(y)
				if withinSearch != nil && !(withinSearch(ye.U) && withinSearch(ye.V)) {
					continue
				}
				s.viaEpoch[y] = ep
				s.viaNode[y] = searchNode{parentEdge: x, color: c}
				visited++
				s.queue = append(s.queue, y)
			}
		}
		if maxVisited > 0 && visited > maxVisited {
			break
		}
	}
	stats.Visited = visited
	return nil, stats
}

// FindAugmenting is the standalone form: it builds a fresh Searcher for
// one search. Loops should construct a Searcher once and reuse it.
func FindAugmenting(st *forest.State, palettes [][]int32, start int32,
	withinSearch, withinPath func(int32) bool, maxVisited int) (Sequence, SearchStats) {
	return NewSearcher(st).FindAugmenting(palettes, start, withinSearch, withinPath, maxVisited)
}

// backtrack reconstructs the almost augmenting sequence ending at edge
// last, which takes color c.
func (s *Searcher) backtrack(last, c int32) Sequence {
	var rev Sequence
	rev = append(rev, Step{Edge: last, Color: c})
	for cur := last; ; {
		node := s.viaNode[cur]
		if node.parentEdge < 0 {
			break
		}
		// The parent takes the color whose path contained cur.
		rev = append(rev, Step{Edge: node.parentEdge, Color: node.color})
		cur = node.parentEdge
	}
	// Reverse into e_1 ... e_l order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// shortCircuit enforces condition (A3): while some e_i lies on C(e_j, c_j)
// with j < i-1, splice out the intermediate steps (Proposition 3.4). It
// splices seq in place.
func (s *Searcher) shortCircuit(seq Sequence, pathWithin func(int32) bool) Sequence {
	for changed := true; changed; {
		changed = false
	scan:
		for j := 0; j+2 < len(seq); j++ {
			e := s.g.Edge(seq[j].Edge)
			s.path, _ = s.view.AppendPath(s.path[:0], seq[j].Color, e.U, e.V, pathWithin)
			ep := s.nextEpoch()
			for _, id := range s.path {
				s.onPath[id] = ep
			}
			for i := len(seq) - 1; i > j+1; i-- {
				if s.onPath[seq[i].Edge] == ep {
					seq = append(seq[:j+1], seq[i:]...)
					changed = true
					break scan
				}
			}
		}
	}
	return seq
}

// seqRadius returns the maximum hop distance from the start edge to any
// sequence edge (Theorem 3.2's containment radius). The BFS runs on the
// Searcher's scratch and stops as soon as every sequence endpoint has
// been reached, so it never pays for the whole graph when the sequence
// is local (the common case Theorem 3.2 guarantees).
func (s *Searcher) seqRadius(seq Sequence) int {
	if len(seq) <= 1 {
		return 0
	}
	g := s.g
	ep := s.nextEpoch()
	need := 0
	for _, step := range seq[1:] {
		e := g.Edge(step.Edge)
		for _, v := range [2]int32{e.U, e.V} {
			if s.needed[v] != ep {
				s.needed[v] = ep
				need++
			}
		}
	}
	e0 := g.Edge(seq[0].Edge)
	s.bfsQueue = s.bfsQueue[:0]
	for _, src := range [2]int32{e0.U, e0.V} {
		if s.seen[src] != ep {
			s.seen[src] = ep
			s.dist[src] = 0
			s.bfsQueue = append(s.bfsQueue, src)
		}
	}
	maxR := 0
	for head := 0; head < len(s.bfsQueue) && need > 0; head++ {
		v := s.bfsQueue[head]
		if s.needed[v] == ep {
			need--
			if d := int(s.dist[v]); d > maxR {
				maxR = d
			}
		}
		for _, a := range g.Adj(v) {
			if s.seen[a.To] != ep {
				s.seen[a.To] = ep
				s.dist[a.To] = s.dist[v] + 1
				s.bfsQueue = append(s.bfsQueue, a.To)
			}
		}
	}
	return maxR
}

// Apply performs the augmentation: every sequence edge takes its sequence
// color (Lemma 3.1 proves the result remains a partial list forest
// decomposition).
func Apply(st *forest.State, seq Sequence) {
	for _, s := range seq {
		st.SetColor(s.Edge, s.Color)
	}
}

// Apply performs the augmentation on the Searcher's State and keeps its
// path view in step. The view takes the sequence as one batch, every
// cut before any link: in sequence order e_1 takes c_1 while e_2 still
// holds c_1, a transient cycle that only the whole batch resolves. The
// State itself is updated in sequence order, exactly as Apply does, so
// its incidence lists (whose order CUT reads) are unchanged.
func (s *Searcher) Apply(seq Sequence) {
	if s.viewBuilt {
		for _, x := range seq {
			s.view.Cut(x.Edge, s.st.Color(x.Edge))
		}
	}
	Apply(s.st, seq)
	if s.viewBuilt {
		for _, x := range seq {
			s.view.Link(x.Edge, x.Color)
		}
	}
}
