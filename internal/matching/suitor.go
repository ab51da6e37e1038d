package matching

import (
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Suitor computes the locally-dominant half-approximate matching with the
// shared-memory suitor algorithm, using the given number of worker
// goroutines (0 selects GOMAXPROCS). This implements the paper's stated
// future-work direction — "emerging many-core computing platforms … will
// need to rely on the use of hybrid distributed-memory and shared-memory
// programming" (Section 6): within one address space, threads race to
// propose, and per-vertex locks arbitrate.
//
// Each vertex proposes to its most preferred neighbor whose current suitor
// it beats; a displaced suitor immediately re-proposes. With the consistent
// (weight desc, label asc) preference order the fixed point is unique and
// equal to LocallyDominant's matching, regardless of thread interleaving.
func Suitor(g *graph.Graph, workers int) Mates {
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// suitor[u] is the best proposal u has received (None if none yet);
	// ws[u] is the weight of that proposal's edge. Both are guarded by
	// locks[u].
	suitor := unmatched(n)
	ws := make([]float64, n)
	locks := make([]sync.Mutex, n)

	// beats reports whether a proposal from candidate c with weight w wins
	// against u's current suitor. Reading suitor/ws under locks[u].
	beats := func(u graph.Vertex, w float64, c graph.Vertex) bool {
		cur := suitor[u]
		if cur == graph.None {
			return true
		}
		return better(w, c, ws[u], cur)
	}

	// propose runs vertex v's proposal chain to completion: find the best
	// neighbor it can still win, install itself, and take over the chain of
	// any vertex it displaced.
	propose := func(v graph.Vertex) {
		current := v
		for {
			adj := g.Neighbors(current)
			wts := g.Weights(current)
			var (
				best     = graph.None
				bestW    float64
				displace graph.Vertex = graph.None
			)
			// Pick the most preferred neighbor that current would win.
			for k, u := range adj {
				w := 1.0
				if wts != nil {
					w = wts[k]
				}
				if best != graph.None && !better(w, u, bestW, best) {
					continue
				}
				locks[u].Lock()
				ok := beats(u, w, current)
				locks[u].Unlock()
				if ok {
					best, bestW = u, w
				}
			}
			if best == graph.None {
				return // current can win nobody; it stays unmatched
			}
			locks[best].Lock()
			if !beats(best, bestW, current) {
				// Lost a race since the scan; retry the whole scan.
				locks[best].Unlock()
				continue
			}
			displace = suitor[best]
			suitor[best] = current
			ws[best] = bestW
			locks[best].Unlock()
			if displace == graph.None {
				return
			}
			current = displace // the displaced vertex must re-propose
		}
	}

	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				propose(graph.Vertex(v))
			}
		}(lo, hi)
	}
	wg.Wait()

	// At the fixed point suitor pointers are mutual exactly on matched
	// edges.
	mates := unmatched(n)
	for v := 0; v < n; v++ {
		u := suitor[v]
		if u != graph.None && suitor[u] == graph.Vertex(v) {
			mates[v] = u
		}
	}
	return mates
}
