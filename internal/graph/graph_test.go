package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	edges := []Edge{{0, 1, 2}, {1, 2, 3}, {2, 0, 1}, {0, 2, 5}}
	g, err := FromEdges(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want [1 2]", got)
	}
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("InNeighbors(2) = %v, want [0 1]", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("degrees of 0 = (%d,%d), want (2,1)", g.OutDegree(0), g.InDegree(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDropsSelfLoops(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 0, 1}, {0, 1, 1}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (self loops dropped)", g.NumEdges())
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 1}}); err == nil {
		t.Fatal("want error for out-of-range edge")
	}
	if _, err := FromEdges(0, nil); err == nil {
		t.Fatal("want error for zero vertices")
	}
}

func TestFromEdgesWeightsParallel(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 2, 7}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// After adjacency sorting, neighbour 1 must carry weight 3 and
	// neighbour 2 weight 7.
	nbrs, ws := g.OutNeighbors(0), g.OutWeightsOf(0)
	if nbrs[0] != 1 || ws[0] != 3 || nbrs[1] != 2 || ws[1] != 7 {
		t.Fatalf("weights not parallel to sorted neighbours: %v %v", nbrs, ws)
	}
}

func TestFromEdgesDefaultWeight(t *testing.T) {
	g, err := FromEdges(2, []Edge{{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutWeightsOf(0)[0] != 1 {
		t.Fatalf("zero weight should default to 1, got %v", g.OutWeightsOf(0)[0])
	}
}

func TestRMATProperties(t *testing.T) {
	g, err := GenerateRMAT(DefaultRMAT(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1024 {
		t.Fatalf("NumVertices = %d, want 1024", g.NumVertices)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.GiniOutDegree < 0.3 {
		t.Fatalf("R-MAT should be skewed, gini = %.3f", s.GiniOutDegree)
	}
	if s.NumEdges < 1024*10 {
		t.Fatalf("too few edges: %d", s.NumEdges)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, err := GenerateRMAT(DefaultRMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRMAT(DefaultRMAT(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed differs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for i := range a.OutEdges {
		if a.OutEdges[i] != b.OutEdges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := GenerateRMAT(RMATConfig{Scale: 0}); err == nil {
		t.Fatal("want error for scale 0")
	}
	cfg := DefaultRMAT(5, 1)
	cfg.A = 0.9 // probabilities no longer sum to 1
	if _, err := GenerateRMAT(cfg); err == nil {
		t.Fatal("want error for bad probabilities")
	}
}

func TestDatasetGenerators(t *testing.T) {
	for _, spec := range Datasets {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.GenerateScale(10)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			s := ComputeStats(g)
			if s.NumEdges == 0 {
				t.Fatal("no edges generated")
			}
			switch spec.Class {
			case ClassRoad:
				if s.MaxOutDegree > 10 {
					t.Fatalf("road max degree %d implausible", s.MaxOutDegree)
				}
				if s.GiniOutDegree > 0.4 {
					t.Fatalf("road network should have uniform degrees, gini=%.3f", s.GiniOutDegree)
				}
			case ClassPowerLaw, ClassRMAT:
				if s.GiniOutDegree < 0.1 {
					t.Fatalf("%s should be skewed, gini=%.3f", spec.Name, s.GiniOutDegree)
				}
			}
		})
	}
}

func TestDatasetByName(t *testing.T) {
	d, err := DatasetByName("wiki")
	if err != nil || d.Name != "wiki" {
		t.Fatalf("DatasetByName(wiki) = %v, %v", d, err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestDatasetClassString(t *testing.T) {
	if ClassPowerLaw.String() != "power-law" || ClassRoad.String() != "road" || ClassRMAT.String() != "rmat" {
		t.Fatal("DatasetClass.String mismatch")
	}
	if DatasetClass(99).String() == "" {
		t.Fatal("unknown class should still stringify")
	}
}

func TestLocalityKnob(t *testing.T) {
	hi, err := generatePowerLaw(11, 8, 2.0, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := generatePowerLaw(11, 8, 2.0, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, sl := ComputeStats(hi), ComputeStats(lo)
	if sh.LocalEdgeFraction <= sl.LocalEdgeFraction {
		t.Fatalf("locality knob ineffective: hi=%.3f lo=%.3f", sh.LocalEdgeFraction, sl.LocalEdgeFraction)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); g > 1e-9 {
		t.Fatalf("uniform gini = %g, want 0", g)
	}
	if g := gini([]int{0, 0, 0, 100}); g < 0.7 {
		t.Fatalf("concentrated gini = %g, want high", g)
	}
	if g := gini(nil); g != 0 {
		t.Fatalf("empty gini = %g", g)
	}
	if g := gini([]int{0, 0}); g != 0 {
		t.Fatalf("zero-sum gini = %g", g)
	}
}

// Property: any random edge list over a valid vertex range produces a graph
// satisfying the CSR invariants with out-edge count == in-edge count.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16) bool {
		n := int(rawN)%64 + 2
		m := int(rawM) % 512
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n)), Weight: rng.Float32()}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every out-edge (u,v) appears as an in-edge of v.
func TestQuickAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		edges := make([]Edge, 200)
		for i := range edges {
			edges[i] = Edge{Src: uint32(rng.Intn(n)), Dst: uint32(rng.Intn(n))}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		for u := uint32(0); int(u) < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				found := false
				for _, back := range g.InNeighbors(v) {
					if back == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	g, _ := FromEdges(2, []Edge{{0, 1, 1}})
	s := ComputeStats(g)
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
	empty := ComputeStats(&Graph{NumVertices: 0, OutIndex: []uint64{0}, InIndex: []uint64{0}})
	if empty.NumEdges != 0 {
		t.Fatal("empty graph stats")
	}
}
