package partition

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/gen"
	"repro/internal/graph"
)

// MultilevelOptions tunes the multilevel k-way partitioner.
type MultilevelOptions struct {
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Zero selects max(32*p, 256).
	CoarsenTo int
	// RefinePasses is the number of greedy boundary-refinement sweeps per
	// uncoarsening level. Zero disables refinement entirely, which is how the
	// "ParMETIS-like" lower-quality regime of Fig. 5.4 is produced; the
	// METIS-like regime of Fig. 5.3 uses the default (set by Multilevel to 4
	// when the struct is zero-valued... see DefaultRefinePasses).
	RefinePasses int
	// NoRefine forces zero refinement passes even when RefinePasses is 0 and
	// the default would apply.
	NoRefine bool
	// Imbalance is the allowed load imbalance (default 0.05 = 5 %).
	Imbalance float64
	// Seed drives the randomized matching and seed selection.
	Seed uint64
}

// DefaultRefinePasses is the refinement effort used when
// MultilevelOptions.RefinePasses is zero and NoRefine is false.
const DefaultRefinePasses = 4

// Multilevel computes a k-way partition with the classic three-phase scheme
// (Karypis–Kumar, the paper's reference [13]): heavy-edge-matching
// coarsening, recursive-bisection initial partitioning of the coarsest
// graph, and greedy boundary refinement during uncoarsening. It is the
// repo's stand-in for METIS.
//
// The result is a function of (g, p, opt) alone — the same Part on every run,
// at any GOMAXPROCS: every random draw comes from opt.Seed, vertices are
// visited in that order over dense arrays, and refine breaks a tie between
// equally good moves by part id.
func Multilevel(g *graph.Graph, p int, opt MultilevelOptions) (*Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: non-positive part count %d", p)
	}
	n := g.NumVertices()
	if p > n && n > 0 {
		return nil, fmt.Errorf("%w (%d parts for %d vertices)", ErrPartsExceedVertices, p, n)
	}
	if n == 0 {
		return &Partition{P: p, Part: []int32{}}, nil
	}
	if opt.CoarsenTo == 0 {
		opt.CoarsenTo = 32 * p
		if opt.CoarsenTo < 256 {
			opt.CoarsenTo = 256
		}
	}
	if opt.Imbalance == 0 {
		opt.Imbalance = 0.05
	}
	passes := opt.RefinePasses
	if passes == 0 && !opt.NoRefine {
		passes = DefaultRefinePasses
	}
	if opt.NoRefine {
		passes = 0
	}

	// Build the level stack.
	lev := &level{g: g, vwgt: unitWeights(n)}
	var stack []*level
	rng := gen.NewRNG(opt.Seed)
	s := &scratch{perm: make([]graph.Vertex, n), mate: make([]graph.Vertex, n), cut: make([]int32, n), coarseCut: make([]int32, n), settled: make([]bool, n)}
	for lev.g.NumVertices() > opt.CoarsenTo {
		next := coarsen(lev, rng, s)
		if next == nil { // matching stalled; stop coarsening
			break
		}
		stack = append(stack, lev)
		lev = next
	}

	// Initial partition of the coarsest level by recursive bisection.
	part := make([]int32, lev.g.NumVertices())
	all := make([]graph.Vertex, lev.g.NumVertices())
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	s.mark = make([]int32, len(all))
	bisect(lev, all, 0, p, part, rng, s)
	s.ext, s.touched = make([]float64, p), make([]int32, 0, p)
	refine(lev, part, p, passes, opt.Imbalance, rng, s)

	// Uncoarsen, projecting and refining at each level.
	for i := len(stack) - 1; i >= 0; i-- {
		fine := stack[i]
		finePart := make([]int32, fine.g.NumVertices())
		for v := range finePart {
			finePart[v] = part[fine.coarseOf[v]]
		}
		part = finePart
		s.cut, s.coarseCut = s.coarseCut, s.cut
		refine(fine, part, p, passes, opt.Imbalance, rng, s)
	}
	return &Partition{P: p, Part: part}, nil
}

// ErrPartsExceedVertices is what Multilevel, which leaves no part empty,
// wraps when asked for more parts than vertices: a fault of the request.
var ErrPartsExceedVertices = errors.New("partition: more parts than vertices")

// level is one rung of the multilevel stack. coarseOf maps this level's
// vertices to the next-coarser level's ids (nil at the coarsest level).
type level struct {
	g        *graph.Graph
	vwgt     []int64
	coarseOf []graph.Vertex
}

// scratch is the dense working memory of one Multilevel call: allocated once,
// for the finest level, and resliced by every coarser level and every pass.
type scratch struct {
	perm, mate []graph.Vertex // a pass's visiting order; coarsen's matching
	// contract: the upper rows it merges before it lays out the coarse CSR.
	slot, cursor, upStart []int64
	upAdj                 []graph.Vertex
	upW                   []float64
	// bisect: mark[v] is the stamp of the last set v was put in. Each call
	// takes two fresh stamps, so no call ever clears the array.
	mark  []int32
	stamp int32
	// refine: the weight from the vertex in hand to each part, the parts for
	// which it is set, cut[v], v's arcs into other parts (coarseCut: a level
	// up), and settled[v]: v's last evaluation saw no positive gain, and
	// neither v nor a neighbour has moved since.
	ext            []float64
	touched        []int32
	cut, coarseCut []int32
	settled        []bool
}

func unitWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// coarsen performs one round of heavy-edge matching and contracts the graph.
// It returns nil when the matching shrinks the graph by less than 10 %, the
// customary stall condition.
func coarsen(lev *level, rng *gen.RNG, s *scratch) *level {
	g := lev.g
	n := g.NumVertices()
	mate := s.mate[:n]
	for i := range mate {
		mate[i] = graph.None
	}
	order := s.perm[:n]
	gen.FillPerm(rng, order)
	matched := 0
	for _, v := range order {
		if mate[v] != graph.None {
			continue
		}
		adj := g.Neighbors(v)
		wts := g.Weights(v)
		var best graph.Vertex = graph.None
		bestW := -1.0
		for k, u := range adj {
			w := 1.0
			if wts != nil {
				w = wts[k]
			}
			if w > bestW && mate[u] == graph.None { // too light to win: liveness unread
				bestW, best = w, u
			}
		}
		if best != graph.None {
			mate[v], mate[best] = best, v
			matched += 2
		}
	}
	coarseN := n - matched/2
	if coarseN > n*9/10 {
		return nil
	}
	// A coarse vertex is numbered by its lower member, so that ascending fine
	// id visits the coarse vertices in order.
	coarseOf := make([]graph.Vertex, n)
	vwgt := make([]int64, coarseN)
	next := graph.Vertex(0)
	for v := 0; v < n; v++ {
		u := mate[v]
		switch {
		case u == graph.None:
			coarseOf[v] = next
			vwgt[next] = lev.vwgt[v]
			next++
		case graph.Vertex(v) < u:
			coarseOf[v] = next
			coarseOf[u] = next
			vwgt[next] = lev.vwgt[v] + lev.vwgt[u]
			next++
		}
	}
	lev.coarseOf = coarseOf
	return &level{g: contract(g, mate, coarseOf, coarseN, s), vwgt: vwgt}
}

// contract builds the graph of the matched pairs and unmatched vertices of g,
// an edge between two of them weighing what the fine edges between them weigh
// together. It goes from CSR to CSR in time linear in g, with no edge list and
// no sort: first every coarse vertex a, in order, merges its neighbours b > a
// through a dense slot table, adding each fine edge once, from a's side, in
// member-then-adjacency order — so both arcs of a coarse edge carry one sum.
// Then two scatters lay the rows out ascending: walking a upward appends a to
// the front zone of every such b (its lower neighbours, ascending because a
// ascends), and walking b upward over those zones appends b to the back zone
// of every a (its higher neighbours, ascending because b ascends).
func contract(g *graph.Graph, mate, coarseOf []graph.Vertex, coarseN int, s *scratch) *graph.Graph {
	if s.slot == nil { // the first and largest contraction sizes them all
		s.slot = make([]int64, coarseN)
		s.cursor = make([]int64, coarseN)
		s.upStart = make([]int64, coarseN+1)
		s.upAdj = make([]graph.Vertex, 0, g.NumEdges())
		s.upW = make([]float64, 0, g.NumEdges())
	}
	slot, cursor, upStart := s.slot[:coarseN], s.cursor[:coarseN], s.upStart[:coarseN+1]
	upAdj, upW := s.upAdj[:0], s.upW[:0]
	for c := range slot {
		slot[c] = -1
	}
	clear(cursor)
	a := graph.Vertex(0)
	for v := 0; v < g.NumVertices(); v++ {
		if mate[v] != graph.None && mate[v] < graph.Vertex(v) {
			continue // the higher member of a pair: merged with the lower
		}
		rowStart := int64(len(upAdj))
		upStart[a] = rowStart
		for _, x := range [2]graph.Vertex{graph.Vertex(v), mate[v]} {
			if x == graph.None {
				continue
			}
			wts := g.Weights(x)
			for k, u := range g.Neighbors(x) {
				b := coarseOf[u]
				if b <= a {
					continue
				}
				w := 1.0
				if wts != nil {
					w = wts[k]
				}
				if at := slot[b]; at >= rowStart {
					upW[at] += w
					continue
				}
				slot[b] = int64(len(upAdj))
				upAdj, upW = append(upAdj, b), append(upW, w)
				cursor[b]++
			}
		}
		a++
	}
	upStart[coarseN] = int64(len(upAdj))

	cg := &graph.Graph{Xadj: make([]int64, coarseN+1)}
	for c := 0; c < coarseN; c++ {
		cg.Xadj[c+1] = cg.Xadj[c] + cursor[c] + upStart[c+1] - upStart[c]
		cursor[c] = cg.Xadj[c]
	}
	cg.Adj = make([]graph.Vertex, cg.Xadj[coarseN])
	cg.W = make([]float64, cg.Xadj[coarseN])
	for a := 0; a < coarseN; a++ {
		for i := upStart[a]; i < upStart[a+1]; i++ {
			b := upAdj[i]
			cg.Adj[cursor[b]], cg.W[cursor[b]] = graph.Vertex(a), upW[i]
			cursor[b]++
		}
	}
	for b := 0; b < coarseN; b++ {
		// cursor[b] is where b's front zone ends: only higher rows move it.
		for i := cg.Xadj[b]; i < cursor[b]; i++ {
			a := cg.Adj[i]
			cg.Adj[cursor[a]], cg.W[cursor[a]] = graph.Vertex(b), cg.W[i]
			cursor[a]++
		}
	}
	return cg
}

// bisect recursively splits the vertex set into p parts labeled
// [base, base+p), growing one side breadth-first until it holds its share of
// the total vertex weight.
func bisect(lev *level, verts []graph.Vertex, base, p int, part []int32, rng *gen.RNG, s *scratch) {
	if p == 1 {
		for _, v := range verts {
			part[v] = int32(base)
		}
		return
	}
	pl := p / 2
	pr := p - pl
	var total int64
	for _, v := range verts {
		total += lev.vwgt[v]
	}
	target := total * int64(pl) / int64(p)

	// A vertex of verts carries the stamp in until it is grown into the left
	// side, and side from then on; every other vertex carries an older one.
	in, side := s.stamp+1, s.stamp+2
	s.stamp = side
	for _, v := range verts {
		s.mark[v] = in
	}
	var grown int64
	queue := make([]graph.Vertex, 0, len(verts)/2)
	// Grow from (pseudo-)peripheral seeds until the target weight is reached;
	// multiple seeds handle disconnected regions.
	for grown < target {
		var seed graph.Vertex = graph.None
		for try := 0; try < 16; try++ {
			c := verts[rng.Intn(len(verts))]
			if s.mark[c] == in {
				seed = c
				break
			}
		}
		if seed == graph.None {
			for _, v := range verts {
				if s.mark[v] == in {
					seed = v
					break
				}
			}
		}
		if seed == graph.None {
			break
		}
		queue = append(queue[:0], seed)
		s.mark[seed] = side
		grown += lev.vwgt[seed]
		for len(queue) > 0 && grown < target {
			v := queue[0]
			queue = queue[1:]
			for _, u := range lev.g.Neighbors(v) {
				if s.mark[u] == in && grown < target {
					s.mark[u] = side
					grown += lev.vwgt[u]
					queue = append(queue, u)
				}
			}
		}
	}
	left := make([]graph.Vertex, 0, len(verts)/2)
	right := make([]graph.Vertex, 0, len(verts)/2)
	for _, v := range verts {
		if s.mark[v] == side {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	// Degenerate splits (all vertices on one side) are rebalanced bluntly.
	if len(left) == 0 || len(right) == 0 {
		slices.Sort(verts)
		mid := len(verts) * pl / p
		left = append(left[:0], verts[:mid]...)
		right = append(right[:0], verts[mid:]...)
	}
	bisect(lev, left, base, pl, part, rng, s)
	bisect(lev, right, base+pl, pr, part, rng, s)
}

// refine performs greedy boundary-move passes: each boundary vertex moves to
// the neighboring part with the largest positive gain (external minus
// internal edge weight) provided the move keeps both parts within the load
// bound; of several parts with that gain, to the one with the lowest id. This
// is the lightweight cousin of Kernighan–Lin/Fiduccia–Mattheyses refinement
// used at every level of the multilevel scheme.
//
// A vertex with no arc into another part lists no part, so it is skipped.
// s.cut counts those arcs across moves; a vertex whose coarse vertex had none
// has none (its neighbours lie in it or its neighbours) and is not counted.
// A settled vertex is skipped too: its gains depend on its own and its
// neighbours' parts alone, so evaluating it again would sum the same row in
// the same order and again find no positive gain, whatever the loads.
func refine(lev *level, part []int32, p int, passes int, imbalance float64, rng *gen.RNG, s *scratch) {
	if passes <= 0 {
		return
	}
	g := lev.g
	n := g.NumVertices()
	load, cut, settled := make([]int64, p), s.cut[:n], s.settled[:n]
	clear(settled)
	var total int64
	for v := 0; v < n; v++ {
		load[part[v]] += lev.vwgt[v]
		total += lev.vwgt[v]
		if cut[v] = 0; lev.coarseOf == nil || s.coarseCut[lev.coarseOf[v]] != 0 {
			cut[v] = arcsOut(g, part, graph.Vertex(v))
		}
	}
	maxLoad := int64(float64(total)/float64(p)*(1+imbalance)) + 1
	ext := s.ext
	order := s.perm[:n]
	for pass := 0; pass < passes; pass++ {
		moved := 0
		gen.FillPerm(rng, order)
		for _, v := range order {
			if cut[v] == 0 || settled[v] {
				continue
			}
			home := part[v]
			adj := g.Neighbors(v)
			internal := 0.0
			touched := s.touched[:0]
			wts := g.Weights(v)
			for k, u := range adj {
				w := 1.0
				if wts != nil {
					w = wts[k]
				}
				q := part[u]
				if q == home {
					internal += w
					continue
				}
				// A part is listed when its sum leaves zero. Weights that
				// cancel can list it twice, which neither loop below minds.
				if ext[q] == 0 {
					touched = append(touched, q)
				}
				ext[q] += w
			}
			bestPart := home
			bestGain := 0.0
			settled[v] = true
			for _, q := range touched {
				gain := ext[q] - internal
				settled[v] = settled[v] && gain <= 0
				if load[q]+lev.vwgt[v] > maxLoad {
					continue
				}
				if gain > bestGain || gain == bestGain && bestPart != home && q < bestPart {
					bestGain, bestPart = gain, q
				}
			}
			for _, q := range touched {
				ext[q] = 0
			}
			if bestPart != home {
				load[home] -= lev.vwgt[v]
				load[bestPart] += lev.vwgt[v]
				part[v] = bestPart
				moved++
				for _, u := range adj { // v itself moved on a positive gain: not settled
					settled[u] = false
					if part[u] == home {
						cut[u]++
					} else if part[u] == bestPart {
						cut[u]--
					}
				}
				cut[v] = arcsOut(g, part, v)
			}
		}
		if moved == 0 {
			break
		}
	}
}

// arcsOut counts v's arcs into parts other than its own.
func arcsOut(g *graph.Graph, part []int32, v graph.Vertex) (n int32) {
	for _, u := range g.Neighbors(v) {
		if part[u] != part[v] {
			n++
		}
	}
	return n
}
