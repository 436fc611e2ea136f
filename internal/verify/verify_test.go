package verify

import (
	"math/rand"
	"testing"

	"nwforest/internal/graph"
)

func triangle() *graph.Graph {
	return graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 0)})
}

func TestForestDecompositionValid(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 1}, 2); err != nil {
		t.Fatal(err)
	}
}

func TestForestDecompositionCycle(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("monochromatic triangle accepted")
	}
}

func TestForestDecompositionRange(t *testing.T) {
	g := triangle()
	if err := ForestDecomposition(g, []int32{0, 0, 2}, 2); err == nil {
		t.Fatal("color 2 accepted with k=2")
	}
	if err := ForestDecomposition(g, []int32{0, 0, Uncolored}, 2); err == nil {
		t.Fatal("uncolored edge accepted in total decomposition")
	}
	if err := ForestDecomposition(g, []int32{0, 0}, 2); err == nil {
		t.Fatal("wrong-length coloring accepted")
	}
}

func TestPartialForestDecomposition(t *testing.T) {
	g := triangle()
	if err := PartialForestDecomposition(g, []int32{0, Uncolored, 0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := PartialForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("cycle accepted in partial decomposition")
	}
}

func TestStarForestDecomposition(t *testing.T) {
	// Path 0-1-2-3: coloring all edges the same is a forest but not a
	// star forest (vertex 1 and 2 both have degree 2).
	g := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3)})
	if err := StarForestDecomposition(g, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("path of length 3 accepted as star forest")
	}
	if err := StarForestDecomposition(g, []int32{0, 1, 0}, 2); err != nil {
		t.Fatalf("valid star decomposition rejected: %v", err)
	}
	// A star K_{1,3} in one color is fine.
	star := graph.MustNew(4, []graph.Edge{graph.E(0, 1), graph.E(0, 2), graph.E(0, 3)})
	if err := StarForestDecomposition(star, []int32{0, 0, 0}, 1); err != nil {
		t.Fatalf("star rejected: %v", err)
	}
}

func TestMaxForestDiameter(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(3, 4)})
	if d := MaxForestDiameter(g, []int32{0, 0, 0, 0}); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
	if d := MaxForestDiameter(g, []int32{0, 1, 0, 1}); d != 1 {
		t.Fatalf("diameter = %d, want 1", d)
	}
	if d := MaxForestDiameter(g, []int32{Uncolored, Uncolored, Uncolored, Uncolored}); d != 0 {
		t.Fatalf("diameter = %d, want 0", d)
	}
}

func TestMaxForestDiameterTwoComponents(t *testing.T) {
	g := graph.MustNew(7, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(4, 5), graph.E(5, 6), graph.E(3, 4)})
	// Color 0: path 0-1-2 (diam 2) and path 3-4-5-6 (diam 3).
	if d := MaxForestDiameter(g, []int32{0, 0, 0, 0, 0}); d != 3 {
		t.Fatalf("diameter = %d, want 3", d)
	}
}

// forestDiameterReference is the double sweep with a fresh allocating
// BFS per sweep: the straightforward form forestDiameter must agree with.
func forestDiameterReference(f *graph.Graph) int {
	visited := make([]bool, f.N())
	maxDiam := 0
	for v := int32(0); int(v) < f.N(); v++ {
		if visited[v] || f.Degree(v) == 0 {
			continue
		}
		far, farD := v, 0
		f.BFS([]int32{v}, -1, func(w int32, d int) {
			visited[w] = true
			if d > farD {
				far, farD = w, d
			}
		})
		diam := 0
		f.BFS([]int32{far}, -1, func(_ int32, d int) { diam = max(diam, d) })
		maxDiam = max(maxDiam, diam)
	}
	return maxDiam
}

// TestForestDiameterMatchesReference compares forestDiameter with the
// reference on random forests: many small trees, a few long paths,
// isolated vertices and shuffled labels.
func TestForestDiameterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(200)
		perm := r.Perm(n)
		var edges []graph.Edge
		for i := 1; i < n; i++ {
			if r.Intn(4) == 0 {
				continue // start a new tree (or leave i isolated)
			}
			lo := 0
			if r.Intn(2) == 0 {
				lo = max(0, i-3) // bias toward long paths
			}
			p := lo + r.Intn(i-lo)
			edges = append(edges, graph.E(int32(perm[p]), int32(perm[i])))
		}
		f := graph.MustNew(n, edges)
		if got, want := forestDiameter(f), forestDiameterReference(f); got != want {
			t.Fatalf("trial %d (n=%d, m=%d): diameter %d, reference %d", trial, n, len(edges), got, want)
		}
	}
}

func TestRespectsPalettes(t *testing.T) {
	pal := [][]int32{{0, 1}, {2}}
	if err := RespectsPalettes([]int32{1, 2}, pal); err != nil {
		t.Fatal(err)
	}
	if err := RespectsPalettes([]int32{2, 2}, pal); err == nil {
		t.Fatal("off-palette color accepted")
	}
	if err := RespectsPalettes([]int32{Uncolored, 2}, pal); err != nil {
		t.Fatal("uncolored edge should be ignored")
	}
	if err := RespectsPalettes([]int32{1}, pal); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestColorsUsedAndMaxColor(t *testing.T) {
	colors := []int32{0, 3, 3, Uncolored, 1}
	if n := ColorsUsed(colors); n != 3 {
		t.Fatalf("ColorsUsed = %d, want 3", n)
	}
	if m := MaxColor(colors); m != 3 {
		t.Fatalf("MaxColor = %d, want 3", m)
	}
	if m := MaxColor([]int32{Uncolored}); m != Uncolored {
		t.Fatalf("MaxColor of uncolored = %d", m)
	}
}

func TestOrientation(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 0)})
	o := NewOrientation(3)
	// 0->1, 1->2, 2->0: a directed cycle, out-degree 1 everywhere.
	o.FromU[0], o.FromU[1], o.FromU[2] = true, true, true
	if MaxOutDegree(g, o) != 1 {
		t.Fatalf("max out-degree = %d, want 1", MaxOutDegree(g, o))
	}
	if OrientationAcyclic(g, o) {
		t.Fatal("directed triangle reported acyclic")
	}
	// Re-orient 2->0 as 0->2: now acyclic with out-degree 2 at vertex 0.
	o.FromU[2] = false
	if !OrientationAcyclic(g, o) {
		t.Fatal("acyclic orientation reported cyclic")
	}
	out := OutDegrees(g, o)
	if out[0] != 2 || out[1] != 1 || out[2] != 0 {
		t.Fatalf("out-degrees = %v", out)
	}
	if o.Tail(g, 2) != 0 || o.Head(g, 2) != 2 {
		t.Fatal("Tail/Head inconsistent")
	}
}

func TestPseudoForestDecomposition(t *testing.T) {
	// One cycle per component is allowed...
	tri := triangle()
	if err := PseudoForestDecomposition(tri, []int32{0, 0, 0}, 1); err != nil {
		t.Fatalf("single cycle rejected: %v", err)
	}
	// ...but two cycles sharing a component are not: theta graph
	// (two vertices joined by three parallel paths of length 1).
	theta := graph.MustNew(2, []graph.Edge{graph.E(0, 1), graph.E(0, 1), graph.E(0, 1)})
	if err := PseudoForestDecomposition(theta, []int32{0, 0, 0}, 1); err == nil {
		t.Fatal("double cycle accepted")
	}
	if err := PseudoForestDecomposition(theta, []int32{0, 0, 1}, 2); err != nil {
		t.Fatalf("valid 2-pseudo-forest rejected: %v", err)
	}
	// Range errors still caught.
	if err := PseudoForestDecomposition(tri, []int32{0, 0, 5}, 2); err == nil {
		t.Fatal("out-of-range color accepted")
	}
}
