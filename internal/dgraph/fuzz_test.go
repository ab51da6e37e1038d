package dgraph

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// FuzzDistribute builds a graph of at most 64 vertices and a partition of it
// into at most 8 parts, empty parts allowed, from the fuzz bytes — vertex
// count, part count, one part byte per vertex, then three bytes per edge
// (ends and a weight from four, so ties abound) — and distributes it. Every
// share must pass Validate, the two halves of every pair table must agree,
// Gather of each share's owned global ids must be the identity, and the
// boundary prefix must be exactly the owned vertices with a neighbor in
// another part.
func FuzzDistribute(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 1, 0, 1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 3, 4, 3})
	f.Add([]byte{8, 4, 0, 3, 3, 1, 0, 2, 1, 3, 0, 7, 1, 1, 6, 2, 2, 5, 3, 3, 4, 0, 0, 4, 1})
	f.Add([]byte{63, 7, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9, 9, 10, 20, 30, 40, 50, 60, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, p := 1+int(data[0])%64, 1+int(data[1])%8
		data = data[2:]
		part := &partition.Partition{P: p, Part: make([]int32, n)}
		for v := 0; v < n && v < len(data); v++ {
			part.Part[v] = int32(data[v]) % int32(p)
		}
		data = data[min(n, len(data)):]
		var edges []graph.Edge
		for ; len(data) >= 3; data = data[3:] {
			edges = append(edges, graph.Edge{U: graph.Vertex(int(data[0]) % n), V: graph.Vertex(int(data[1]) % n), W: float64(data[2] % 4)})
		}
		g, err := graph.BuildUndirected(n, edges, graph.DedupeFirst)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Distribute(g, part)
		if err != nil {
			t.Fatal(err)
		}
		checkPairTables(t, "fuzz", shares) // Validate included
		owned := make([][]int64, p)
		for rank, d := range shares {
			owned[rank] = d.GlobalID[:d.NLocal]
			for v, gid := range owned[rank] {
				boundary := false
				for _, u := range g.Neighbors(graph.Vertex(gid)) {
					boundary = boundary || part.Part[u] != int32(rank)
				}
				if boundary != (v < d.NumBoundary) {
					t.Fatalf("rank %d: vertex %d (local %d) has a neighbor elsewhere: %v; NumBoundary %d", rank, gid, v, boundary, d.NumBoundary)
				}
			}
		}
		ids, err := Gather[int64, int64](shares, owned)
		if err != nil {
			t.Fatal(err)
		}
		for gid, got := range ids {
			if got != int64(gid) {
				t.Fatalf("Gather of the owned ids puts %d at vertex %d", got, gid)
			}
		}
	})
}
