package coloring

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// SharedMemory colors g with the speculative iterative scheme on
// shared-memory threads (Gebremedhin–Manne style), the building block of the
// hybrid distributed/shared-memory direction the paper's Section 6 sketches:
// within an address space, workers color disjoint vertex blocks
// speculatively while reading neighbor colors racily, then a parallel
// conflict-detection sweep collects the losing endpoint of every conflict
// edge for the next round.
//
// The result is a proper distance-1 coloring with at most Δ+1 colors; the
// number of rounds is tiny in practice (conflicts only arise between
// simultaneously colored neighbors).
func SharedMemory(g *graph.Graph, workers int, seed uint64) Colors {
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	colors := make([]int32, n)
	u := make([]graph.Vertex, n)
	for i := range u {
		colors[i] = -1
		u[i] = graph.Vertex(i)
	}
	speculateShared(u, min(workers, n), g.MaxDegree()+1, colors, g.Xadj, g.Adj, nil, seed)
	return colors
}

// speculateShared colors the vertices u of one address space with up to
// `workers` goroutines, writing colors[v] for v in u (u is consumed). The
// adjacency is a CSR whose columns index colors; globalID names a vertex for
// the conflict rule (nil: its index); maxColors is Δ+1 over the vertices in
// play. Both SharedMemory and the hybrid mode's interior phase run on it.
func speculateShared(u []int32, workers, maxColors int, colors []int32,
	xadj []int64, adj []int32, globalID []int64, seed uint64) {
	gid := func(v int32) int64 {
		if globalID == nil {
			return int64(v)
		}
		return globalID[v]
	}
	recolor := make([][]int32, workers)
	for len(u) > 0 {
		// Speculative coloring phase: racy reads of neighbor colors are
		// benign — a missed concurrent assignment at worst produces a
		// conflict that the next phase catches.
		parallelOver(u, workers, func(_ int, chunk []int32) {
			// firstFit's stamp-mark scan over atomic loads, spelled out so
			// that mark and stamp live in the worker's registers: through a
			// firstFit this loop measured 4–5 % slower on the 512² grid.
			mark := make([]int64, maxColors+1)
			var stamp int64
			for _, v := range chunk {
				stamp++
				for _, nb := range adj[xadj[v]:xadj[v+1]] {
					c := atomic.LoadInt32(&colors[nb])
					if c >= 0 && int(c) < len(mark) {
						mark[c] = stamp
					}
				}
				for c := range mark {
					if mark[c] != stamp {
						atomic.StoreInt32(&colors[v], int32(c))
						break
					}
				}
			}
		})
		// Conflict detection: the endpoint with the smaller random priority
		// (ties by id) re-colors, exactly as in the distributed framework
		// under ConflictRandom (outranked inlines; loses would be a call in
		// this loop).
		parallelOver(u, workers, func(worker int, chunk []int32) {
			var losers []int32
			for _, v := range chunk {
				cv := atomic.LoadInt32(&colors[v])
				for _, nb := range adj[xadj[v]:xadj[v+1]] {
					if atomic.LoadInt32(&colors[nb]) != cv {
						continue
					}
					gv, gu := gid(v), gid(nb)
					if outranked(rnd(seed, gv), gv, rnd(seed, gu), gu) {
						losers = append(losers, v)
						break
					}
				}
			}
			recolor[worker] = losers
		})
		u = u[:0]
		for i := range recolor {
			u = append(u, recolor[i]...)
			recolor[i] = nil
		}
	}
}

// parallelOver splits items into contiguous chunks, one per worker, runs fn
// on each concurrently and waits for all of them.
func parallelOver(items []int32, workers int, fn func(worker int, chunk []int32)) {
	w := min(workers, len(items))
	chunk := (len(items) + w - 1) / w
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(items))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			fn(i, items[lo:hi])
		}(i, lo, hi)
	}
	wg.Wait()
}
