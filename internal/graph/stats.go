package graph

import "fmt"

// Stats summarizes a graph for experiment headers and logs.
type Stats struct {
	Vertices   int
	Edges      int64
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	Components int
	Weighted   bool
}

// Summarize computes Stats, including a connected-component count via BFS.
func Summarize(g *Graph) Stats {
	s := Stats{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		MinDegree: g.MinDegree(),
		MaxDegree: g.MaxDegree(),
		Weighted:  g.W != nil,
	}
	if s.Vertices > 0 {
		s.AvgDegree = float64(g.NumArcs()) / float64(s.Vertices)
	}
	s.Components = CountComponents(g)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d deg[%d..%d] avg=%.2f comps=%d weighted=%v",
		s.Vertices, s.Edges, s.MinDegree, s.MaxDegree, s.AvgDegree, s.Components, s.Weighted)
}

// CountComponents reports the number of connected components.
func CountComponents(g *Graph) int {
	n := g.NumVertices()
	visited := make([]bool, n)
	queue := make([]Vertex, 0, 1024)
	comps := 0
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		comps++
		visited[start] = true
		queue = append(queue[:0], Vertex(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return comps
}

// IsConnected reports whether the graph has at most one component.
func IsConnected(g *Graph) bool { return CountComponents(g) <= 1 }
