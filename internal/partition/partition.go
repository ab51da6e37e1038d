// Package partition assigns graph vertices to processors. It supplies the
// initial data distributions the paper assumes ("the input graph is assumed
// to be partitioned and distributed among the available processors in some
// reasonable way"): the uniform two-dimensional grid distribution of the
// weak/strong scaling experiments, and graph partitioners standing in for
// METIS (multilevel with refinement, low cut — Fig. 5.3) and for ParMETIS's
// lower quality at high processor counts (refinement off / randomized — the
// 40 % cut regime of Fig. 5.4).
package partition

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Partition maps each vertex to a part (processor) in [0, P).
type Partition struct {
	P    int
	Part []int32 // len = NumVertices
}

// Validate checks that every vertex has an in-range part.
func (p *Partition) Validate(g *graph.Graph) error {
	if p.P <= 0 {
		return fmt.Errorf("partition: non-positive part count %d", p.P)
	}
	if len(p.Part) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Part), g.NumVertices())
	}
	for v, part := range p.Part {
		if part < 0 || int(part) >= p.P {
			return fmt.Errorf("partition: vertex %d assigned to part %d of %d", v, part, p.P)
		}
	}
	return nil
}

// Metrics quantify partition quality.
type Metrics struct {
	P            int
	EdgeCut      int64   // number of cross edges
	CutFraction  float64 // EdgeCut / NumEdges
	MaxPartSize  int
	MinPartSize  int
	Imbalance    float64 // MaxPartSize / ideal - 1
	BoundaryVtx  int64   // vertices with at least one cross edge
	BoundaryFrac float64 // BoundaryVtx / NumVertices
}

// Measure computes Metrics for p on g.
func Measure(g *graph.Graph, p *Partition) Metrics {
	m := Metrics{P: p.P, MinPartSize: g.NumVertices()}
	sizes := make([]int, p.P)
	for _, part := range p.Part {
		sizes[part]++
	}
	for _, s := range sizes {
		if s > m.MaxPartSize {
			m.MaxPartSize = s
		}
		if s < m.MinPartSize {
			m.MinPartSize = s
		}
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		boundary := false
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if p.Part[u] != p.Part[v] {
				boundary = true
				if graph.Vertex(v) < u {
					m.EdgeCut++
				}
			}
		}
		if boundary {
			m.BoundaryVtx++
		}
	}
	if g.NumEdges() > 0 {
		m.CutFraction = float64(m.EdgeCut) / float64(g.NumEdges())
	}
	if n > 0 {
		m.BoundaryFrac = float64(m.BoundaryVtx) / float64(n)
		ideal := float64(n) / float64(p.P)
		if ideal > 0 {
			m.Imbalance = float64(m.MaxPartSize)/ideal - 1
		}
	}
	return m
}

func (m Metrics) String() string {
	return fmt.Sprintf("P=%d cut=%d (%.1f%%) sizes[%d..%d] imbalance=%.2f%% boundary=%.1f%%",
		m.P, m.EdgeCut, 100*m.CutFraction, m.MinPartSize, m.MaxPartSize,
		100*m.Imbalance, 100*m.BoundaryFrac)
}

// PartVertices groups vertex ids by part, ascending within each part. The
// groups are cut from one array sized by a counting pass, so no group ever
// grows.
func PartVertices(p *Partition) [][]graph.Vertex {
	sizes := make([]int, p.P)
	for _, part := range p.Part {
		sizes[part]++
	}
	flat := make([]graph.Vertex, len(p.Part))
	out := make([][]graph.Vertex, p.P)
	for part, off := 0, 0; part < p.P; part++ {
		out[part] = flat[off : off : off+sizes[part]]
		off += sizes[part]
	}
	for v, part := range p.Part {
		out[part] = append(out[part], graph.Vertex(v))
	}
	return out
}

// Partitioner computes a p-way partition of g. opt carries the seed every
// randomized partitioner draws from and the multilevel refinement knobs;
// partitioners without a use for a field ignore it.
type Partitioner func(g *graph.Graph, p int, opt MultilevelOptions) (*Partition, error)

// named is the one table of partitioner names — the -partition / -method
// flag of the CLIs, the "partition" field of a service job — so the daemon
// and the CLIs cannot disagree on what a name runs, or on whether its result
// depends on the seed.
var named = []struct {
	name   string
	seeded bool // the result depends on opt.Seed
	build  Partitioner
}{
	{"multilevel", true, Multilevel},
	{"bfs", true, func(g *graph.Graph, p int, opt MultilevelOptions) (*Partition, error) { return BFS(g, p, opt.Seed) }},
	{"block", false, func(g *graph.Graph, p int, _ MultilevelOptions) (*Partition, error) { return Block1D(g, p) }},
	{"random", true, func(g *graph.Graph, p int, opt MultilevelOptions) (*Partition, error) { return Random(g, p, opt.Seed) }},
}

// ByName maps a partitioner name to its implementation.
func ByName(name string) (Partitioner, error) {
	for _, n := range named {
		if n.name == name {
			return n.build, nil
		}
	}
	names := make([]string, len(named))
	for i, n := range named {
		names[i] = n.name
	}
	return nil, fmt.Errorf("unknown partitioner %q: want %s", name, strings.Join(names, " | "))
}

// Seeded reports whether the named partitioner's result depends on the seed;
// a cache of partitions leaves the seed out of a seedless partitioner's key.
// An unknown name is reported as seeded: ByName is what refuses it.
func Seeded(name string) bool {
	for _, n := range named {
		if n.name == name {
			return n.seeded
		}
	}
	return true
}
