// Package verify contains validation oracles for every object the module
// produces: forest decompositions (partial, total, list), star-forest
// decompositions, per-color tree diameters and edge orientations.
//
// The paper's algorithms succeed "with high probability, and all the
// failure modes can be locally checked" (Section 1.1); these oracles are
// that check, run centrally. Tests and the benchmark harness validate
// every decomposition with them.
package verify

import (
	"fmt"

	"nwforest/internal/graph"
	"nwforest/internal/unionfind"
)

// Uncolored marks an edge that has no color in a partial decomposition.
const Uncolored int32 = -1

// ForestDecomposition checks that colors is a total k-forest-decomposition
// of g: every edge has a color in [0, k) and every color class is acyclic.
func ForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, false); err != nil {
		return err
	}
	return colorClassesAcyclic(g, colors)
}

// PartialForestDecomposition checks a partial decomposition: edges may be
// Uncolored, but colored classes must be acyclic and in range.
func PartialForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, true); err != nil {
		return err
	}
	return colorClassesAcyclic(g, colors)
}

func checkColorRange(g *graph.Graph, colors []int32, k int, partialOK bool) error {
	if len(colors) != g.M() {
		return fmt.Errorf("verify: coloring has %d entries for %d edges", len(colors), g.M())
	}
	for id, c := range colors {
		if c == Uncolored {
			if partialOK {
				continue
			}
			return fmt.Errorf("verify: edge %d is uncolored", id)
		}
		if c < 0 || int(c) >= k {
			return fmt.Errorf("verify: edge %d has color %d outside [0,%d)", id, c, k)
		}
	}
	return nil
}

func colorClassesAcyclic(g *graph.Graph, colors []int32) error {
	byColor := bucketByColor(colors)
	dsu := unionfind.New(g.N())
	for c, ids := range byColor {
		dsu.Reset()
		for _, id := range ids {
			e := g.Edge(id)
			if !dsu.Union(int(e.U), int(e.V)) {
				return fmt.Errorf("verify: color %d contains a cycle through edge %d (%d-%d)", c, id, e.U, e.V)
			}
		}
	}
	return nil
}

// bucketByColor groups edge IDs by their color, skipping Uncolored.
func bucketByColor(colors []int32) map[int32][]int32 {
	byColor := make(map[int32][]int32)
	for id, c := range colors {
		if c != Uncolored {
			byColor[c] = append(byColor[c], int32(id))
		}
	}
	return byColor
}

// StarForestDecomposition checks that every color class is a star forest:
// acyclic, and each component has at most one vertex of degree >= 2.
func StarForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := ForestDecomposition(g, colors, k); err != nil {
		return err
	}
	deg := make(map[[2]int32]int) // (color, vertex) -> monochromatic degree
	for id, c := range colors {
		e := g.Edge(int32(id))
		deg[[2]int32{c, e.U}]++
		deg[[2]int32{c, e.V}]++
	}
	for id, c := range colors {
		e := g.Edge(int32(id))
		if deg[[2]int32{c, e.U}] >= 2 && deg[[2]int32{c, e.V}] >= 2 {
			return fmt.Errorf("verify: color %d is not a star forest: edge %d joins two centers (%d-%d)", c, id, e.U, e.V)
		}
	}
	return nil
}

// MaxForestDiameter returns the maximum strong diameter over all
// monochromatic trees (the paper's diameter of the decomposition).
// Uncolored edges are ignored. Returns 0 if no edges are colored.
func MaxForestDiameter(g *graph.Graph, colors []int32) int {
	maxDiam := 0
	for _, ids := range bucketByColor(colors) {
		sub, _ := g.SubgraphOfEdges(ids)
		if d := forestDiameter(sub); d > maxDiam {
			maxDiam = d
		}
	}
	return maxDiam
}

// forestDiameter returns the maximum diameter of any component of the
// given forest using the classic double-sweep (exact on trees). Every
// sweep shares one epoch-stamped scratch, so the total cost is linear
// in the forest rather than O(components x n).
func forestDiameter(f *graph.Graph) int {
	visited := make([]bool, f.N())
	var sc graph.BFSEpochScratch
	src := make([]int32, 1)
	maxDiam := 0
	for v := int32(0); int(v) < f.N(); v++ {
		if visited[v] || f.Degree(v) == 0 {
			continue
		}
		// First sweep: find the farthest vertex from v in its component.
		far := v
		farD := 0
		src[0] = v
		f.BFSEpochWith(&sc, src, -1, func(w int32, d int) {
			visited[w] = true
			if d > farD {
				far, farD = w, d
			}
		})
		// Second sweep from the eccentric vertex gives the diameter.
		diam := 0
		src[0] = far
		f.BFSEpochWith(&sc, src, -1, func(_ int32, d int) {
			if d > diam {
				diam = d
			}
		})
		if diam > maxDiam {
			maxDiam = diam
		}
	}
	return maxDiam
}

// RespectsPalettes checks that every colored edge uses a color from its
// palette.
func RespectsPalettes(colors []int32, palettes [][]int32) error {
	if len(colors) != len(palettes) {
		return fmt.Errorf("verify: %d colors but %d palettes", len(colors), len(palettes))
	}
	for id, c := range colors {
		if c == Uncolored {
			continue
		}
		ok := false
		for _, q := range palettes[id] {
			if q == c {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("verify: edge %d colored %d outside its palette %v", id, c, palettes[id])
		}
	}
	return nil
}

// ColorsUsed returns the number of distinct colors appearing in colors.
func ColorsUsed(colors []int32) int {
	seen := make(map[int32]struct{})
	for _, c := range colors {
		if c != Uncolored {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}

// MaxColor returns the largest color value used, or -1 if none.
func MaxColor(colors []int32) int32 {
	max := Uncolored
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max
}

// Orientation represents an edge orientation: FromU[id] == true means edge
// id is oriented from its U endpoint toward its V endpoint.
type Orientation struct {
	FromU []bool
}

// NewOrientation returns an all-U-to-V orientation for m edges.
func NewOrientation(m int) *Orientation { return &Orientation{FromU: make([]bool, m)} }

// Tail returns the source vertex of edge id under o.
func (o *Orientation) Tail(g *graph.Graph, id int32) int32 {
	e := g.Edge(id)
	if o.FromU[id] {
		return e.U
	}
	return e.V
}

// Head returns the target vertex of edge id under o.
func (o *Orientation) Head(g *graph.Graph, id int32) int32 {
	e := g.Edge(id)
	if o.FromU[id] {
		return e.V
	}
	return e.U
}

// OutDegrees returns the out-degree of every vertex under o.
func OutDegrees(g *graph.Graph, o *Orientation) []int {
	out := make([]int, g.N())
	for id := range g.Edges() {
		out[o.Tail(g, int32(id))]++
	}
	return out
}

// MaxOutDegree returns the maximum out-degree under o.
func MaxOutDegree(g *graph.Graph, o *Orientation) int {
	max := 0
	for _, d := range OutDegrees(g, o) {
		if d > max {
			max = d
		}
	}
	return max
}

// OrientationAcyclic reports whether the directed graph induced by o is
// acyclic (Kahn's algorithm).
func OrientationAcyclic(g *graph.Graph, o *Orientation) bool {
	indeg := make([]int, g.N())
	for id := range g.Edges() {
		indeg[o.Head(g, int32(id))]++
	}
	queue := make([]int32, 0, g.N())
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	processed := 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		processed++
		for _, a := range g.Adj(v) {
			if o.Tail(g, a.Edge) != v {
				continue
			}
			indeg[a.To]--
			if indeg[a.To] == 0 {
				queue = append(queue, a.To)
			}
		}
	}
	return processed == g.N()
}

// PseudoForestDecomposition checks that every color class is a
// pseudo-forest: each connected component has at most as many edges as
// vertices (equivalently, at most one cycle).
func PseudoForestDecomposition(g *graph.Graph, colors []int32, k int) error {
	if err := checkColorRange(g, colors, k, false); err != nil {
		return err
	}
	for c, ids := range bucketByColor(colors) {
		sub, _ := g.SubgraphOfEdges(ids)
		label, count := sub.Components()
		edgeCount := make([]int, count)
		vertCount := make([]int, count)
		seen := make(map[int32]bool)
		for _, id := range ids {
			e := g.Edge(id)
			comp := label[e.U]
			edgeCount[comp]++
			for _, v := range [2]int32{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
					vertCount[label[v]]++
				}
			}
		}
		for comp := range edgeCount {
			if edgeCount[comp] > vertCount[comp] {
				return fmt.Errorf("verify: color %d component %d has %d edges on %d vertices (two cycles)",
					c, comp, edgeCount[comp], vertCount[comp])
			}
		}
	}
	return nil
}
