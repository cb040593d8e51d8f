package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DatasetClass identifies the structural family of a benchmark graph. The
// paper evaluates on six SNAP graphs plus one R-MAT graph; since the SNAP
// downloads are unavailable offline, each dataset is regenerated by a
// class-matched synthetic generator at a simulator-tractable scale (the
// substitution is documented in DESIGN.md §2).
type DatasetClass int

const (
	// ClassPowerLaw is a preferential-attachment style power-law graph
	// (social / web / purchase networks).
	ClassPowerLaw DatasetClass = iota
	// ClassRoad is a bounded-degree planar-ish lattice with shortcuts
	// (road networks such as roadCA).
	ClassRoad
	// ClassRMAT is the Graph500 recursive-matrix generator.
	ClassRMAT
)

func (c DatasetClass) String() string {
	switch c {
	case ClassPowerLaw:
		return "power-law"
	case ClassRoad:
		return "road"
	case ClassRMAT:
		return "rmat"
	default:
		return fmt.Sprintf("DatasetClass(%d)", int(c))
	}
}

// DatasetSpec describes one benchmark graph (Table 2 of the paper).
type DatasetSpec struct {
	Name        string
	Description string
	Class       DatasetClass
	Scale       int     // log2 vertices at default reproduction scale
	EdgeFactor  int     // edges per vertex
	Skew        float64 // power-law exponent knob (higher = heavier tail)
	Locality    float64 // probability that an endpoint is rewired to a nearby id
	Seed        int64
}

// Datasets lists the seven benchmark graphs of Table 2, scaled down so a
// full sweep runs on one machine while the working set still exceeds the
// 2 MB simulated LLC. Relative sizes follow the paper (soclj and wiki are
// the large, edge-heavy graphs; roadCA is sparse and low-degree).
var Datasets = []DatasetSpec{
	{Name: "amazon", Description: "Purchase network (SNAP amazon0302 class)", Class: ClassPowerLaw, Scale: 14, EdgeFactor: 5, Skew: 1.9, Locality: 0.55, Seed: 101},
	{Name: "google", Description: "Web graph (SNAP web-Google class)", Class: ClassPowerLaw, Scale: 15, EdgeFactor: 6, Skew: 2.2, Locality: 0.45, Seed: 102},
	{Name: "roadCA", Description: "California road network class", Class: ClassRoad, Scale: 15, EdgeFactor: 2, Skew: 0, Locality: 0.95, Seed: 103},
	{Name: "soclj", Description: "LiveJournal social network class", Class: ClassPowerLaw, Scale: 16, EdgeFactor: 14, Skew: 2.4, Locality: 0.30, Seed: 104},
	{Name: "wiki", Description: "Wikipedia hyperlink class", Class: ClassPowerLaw, Scale: 15, EdgeFactor: 16, Skew: 2.5, Locality: 0.25, Seed: 105},
	{Name: "youtube", Description: "YouTube social network class", Class: ClassPowerLaw, Scale: 15, EdgeFactor: 3, Skew: 2.1, Locality: 0.35, Seed: 106},
	{Name: "rmat", Description: "Synthetic R-MAT (Graph500 parameters)", Class: ClassRMAT, Scale: 15, EdgeFactor: 16, Seed: 107},
}

// DatasetByName returns the spec for name, or an error listing the options.
func DatasetByName(name string) (DatasetSpec, error) {
	for _, d := range Datasets {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, len(Datasets))
	for i, d := range Datasets {
		names[i] = d.Name
	}
	return DatasetSpec{}, fmt.Errorf("graph: unknown dataset %q (have %v)", name, names)
}

// GenerateScale materialises the dataset with 2^scale vertices, keeping the
// class parameters. Used by tests and by reduced-scale experiment runs.
func (d DatasetSpec) GenerateScale(scale int) (*Graph, error) {
	switch d.Class {
	case ClassRMAT:
		cfg := DefaultRMAT(scale, d.Seed)
		cfg.EdgeFactor = d.EdgeFactor
		return GenerateRMAT(cfg)
	case ClassRoad:
		return generateRoad(scale, d.Seed)
	case ClassPowerLaw:
		return generatePowerLaw(scale, d.EdgeFactor, d.Skew, d.Locality, d.Seed)
	default:
		return nil, fmt.Errorf("graph: unknown class %v", d.Class)
	}
}

// generatePowerLaw builds a directed graph whose in-degree distribution
// follows a discrete power law with exponent skew, via weighted target
// sampling. Locality rewires a fraction of targets near the source id,
// modelling the community structure that gives real SNAP graphs their page
// locality.
func generatePowerLaw(scale, edgeFactor int, skew, locality float64, seed int64) (*Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: power-law scale %d out of range", scale)
	}
	n := 1 << scale
	m := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))

	// Zipf-like popularity: weight(v) = (v+1)^(-skew/2) over a random
	// permutation so hot vertices are spread across the id space the way
	// SNAP crawls interleave hubs with leaves.
	perm := rng.Perm(n)
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		w := 1.0 / pow(float64(i+1), skew/2)
		total += w
		cum[i] = total
	}
	sampleHot := func() uint32 {
		r := rng.Float64() * total
		idx := sort.SearchFloat64s(cum, r)
		if idx >= n {
			idx = n - 1
		}
		return uint32(perm[idx])
	}

	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src := uint32(rng.Intn(n))
		var dst uint32
		if rng.Float64() < locality {
			// Local edge: destination within a small window of src,
			// reflecting community structure / crawl order locality.
			window := 1 << 7
			off := rng.Intn(2*window+1) - window
			d := int(src) + off
			if d < 0 {
				d += n
			}
			dst = uint32(d % n)
		} else {
			dst = sampleHot()
		}
		if src == dst {
			continue
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Weight: 1 + rng.Float32()*9})
	}
	return FromEdges(n, edges)
}

// generateRoad builds a 2D lattice with a small number of long shortcuts,
// the standard stand-in for road networks: degree is nearly uniform (2-4)
// and almost all edges are local.
func generateRoad(scale int, seed int64) (*Graph, error) {
	if scale < 2 || scale > 30 {
		return nil, fmt.Errorf("graph: road scale %d out of range", scale)
	}
	n := 1 << scale
	side := 1 << (scale / 2)
	rows := n / side
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, 2*n)
	id := func(r, c int) uint32 { return uint32(r*side + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < side; c++ {
			v := id(r, c)
			if int(v) >= n {
				continue
			}
			if c+1 < side && int(id(r, c+1)) < n && rng.Float64() < 0.92 {
				w := 1 + rng.Float32()*9
				edges = append(edges, Edge{Src: v, Dst: id(r, c+1), Weight: w})
				edges = append(edges, Edge{Src: id(r, c+1), Dst: v, Weight: w})
			}
			if r+1 < rows && int(id(r+1, c)) < n && rng.Float64() < 0.92 {
				w := 1 + rng.Float32()*9
				edges = append(edges, Edge{Src: v, Dst: id(r+1, c), Weight: w})
				edges = append(edges, Edge{Src: id(r+1, c), Dst: v, Weight: w})
			}
		}
	}
	// Highways: ~0.5% long-range shortcuts.
	for i := 0; i < n/200; i++ {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if a == b {
			continue
		}
		w := 1 + rng.Float32()*9
		edges = append(edges, Edge{Src: a, Dst: b, Weight: w}, Edge{Src: b, Dst: a, Weight: w})
	}
	return FromEdges(n, edges)
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
