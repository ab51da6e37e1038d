package coloring

import (
	"fmt"
	"slices"

	"repro/internal/dgraph"
	"repro/internal/mpi"
)

// Distributed distance-2 coloring, the companion framework to Algorithm 4.1
// (Bozdağ et al. developed the distance-2 variant of the same speculative
// scheme; the paper's Jacobian motivation [7] is its consumer). The key
// structural fact that makes one-layer ghosting sufficient: every distance-2
// conflict (v, w) has a middle vertex u adjacent to both, and the OWNER OF
// THE MIDDLE VERTEX sees both endpoints (as owned vertices or ghosts). So:
//
//   - the tentative coloring phase works as in distance-1, except a vertex
//     avoids the known colors of its distance-2 neighborhood (neighbors of
//     owned neighbors, plus ghost colors — the remote two-hop colors it
//     cannot see are exactly what speculation tolerates);
//   - in the conflict phase each rank scans, for every owned middle vertex,
//     the pairs of equal-colored neighbors; the loser (smaller r) is
//     re-colored — locally if owned, by a RECOLOR notice to its owner if
//     not;
//   - rounds repeat until a global Allreduce finds no re-color work.
type d2Kernel struct {
	*colorState
	opt     ParallelOptions
	notices *mpi.Bundler // outbound RECOLOR notices
	// pending buffers RECOLOR notices until the conflict phase reads them —
	// they can arrive early: a fast peer can pass the post-coloring barrier
	// and start sending detection notices while this rank is still draining
	// color updates. Each notice carries the winner's color.
	pending []noticeRec
	// forbidden accumulates, per owned vertex, colors of remote two-hop
	// conflictors learned from notices. A loser cannot see the winner's
	// color through its one-layer ghosts (the conflict's middle vertex lives
	// on another rank), so without this memory it could re-pick the same
	// color forever.
	forbidden colorLists
	// queued[v] == stamp marks owned vertex v as already in detect's list.
	queued []int32
	stamp  int32
}

// colorLists holds a set of colors per owned vertex as linked lists over one
// append-only pool: head[v] is one past the pool position of the color added
// to v last (0: none), and next[i] is likewise the entry added before entry i.
type colorLists struct {
	head, next, color []int32
}

// add puts color c into v's set unless it is there already.
func (l *colorLists) add(v, c int32) {
	for i := l.head[v]; i != 0; i = l.next[i-1] {
		if l.color[i-1] == c {
			return
		}
	}
	l.color = append(l.color, c)
	l.next = append(l.next, l.head[v])
	l.head[v] = int32(len(l.color))
}

// noticeRec is one received RECOLOR notice: the losing owned vertex and the
// color it must avoid.
type noticeRec struct {
	v, color int32
}

// ParallelDistance2 runs the speculative distance-2 coloring on this rank's
// share. Options are interpreted as for Parallel (CommMode is ignored: the
// distance-2 scheme always uses neighbor-customized messages, the paper's
// NEW mode).
func ParallelDistance2(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (*ParallelResult, error) {
	if opt.SuperstepSize == 0 {
		opt.SuperstepSize = 200
	}
	if opt.SuperstepSize < 1 {
		return nil, fmt.Errorf("coloring: non-positive superstep size %d", opt.SuperstepSize)
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 128
	}
	s, err := newColorState(c, d)
	if err != nil {
		return nil, err
	}
	// Distance-2 degree bound: Δ² + 1 colors always suffice. On top of that,
	// headroom for accumulated forbidden colors: a loser may collect one
	// stale forbidden color per round beyond its live distance-2
	// neighborhood, so the first-fit palette must not be able to fill up.
	maxColors := max(1, min(s.maxDeg*s.maxDeg+1, int(d.GlobalN)))
	s.picker = newFirstFit(maxColors + opt.MaxRounds)
	k := &d2Kernel{
		colorState: s,
		opt:        opt,
		notices:    mpi.NewBundler(c, recolorTag, noticeMax, 0),
		forbidden:  colorLists{head: make([]int32, d.NLocal)},
		queued:     make([]int32, d.NLocal),
	}
	s.onRecolor = func(v, color int32) { k.pending = append(k.pending, noticeRec{v, color}) }
	// Boundary colors ship to every neighbor rank: they may be
	// two-hop-relevant there.
	if err := s.speculate("distance-2", s.allOwned(), opt.SuperstepSize, opt.MaxRounds, k.pickColor, s.announce, k.detect); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// detect finds conflicts at middle vertices. For every owned middle vertex,
// equal-colored neighbor pairs produce a loser; owned losers queue locally,
// remote losers get a RECOLOR notice. It returns the owned vertices that must
// re-color, ascending, with their colors cleared.
func (k *d2Kernel) detect(u []int32) []int32 {
	d := k.d
	// The owned vertices to re-color, each once: u's storage is free (the
	// round that colored it is over), and queued marks who is in it.
	u = u[:0]
	k.stamp++
	recolor := func(v int32) {
		if k.queued[v] != k.stamp {
			k.queued[v] = k.stamp
			u = append(u, v)
		}
	}
	// lost records that the loser of the pair (a, b), both colored col, must
	// re-color.
	lost := func(a, b, col int32) {
		loser := b
		if loses(k.opt.Conflict, k.opt.Seed, d.GlobalOf(a), d.GlobalOf(b)) {
			loser = a
		}
		if !d.IsGhost(loser) {
			recolor(loser)
			return
		}
		var rec [noticeMax]byte
		k.notices.Add(d.OwnerOf(loser), appendNotice(rec[:0], d.GhostAt[int(loser)-d.NLocal], col))
	}
	var arcs int64
	color := k.color
	for mid := int32(0); int(mid) < d.NLocal; mid++ {
		adj := d.Neighbors(mid)
		arcs += int64(len(adj)) * int64(len(adj))
		for i, a := range adj {
			ca := color[a]
			if ca < 0 {
				continue
			}
			for _, b := range adj[i+1:] {
				if color[b] == ca {
					lost(a, b, ca)
				}
			}
		}
		// The middle vertex itself also conflicts with any neighbor of
		// equal color (distance-1 ⊂ distance-2).
		cm := color[mid]
		if cm < 0 {
			continue
		}
		for _, nb := range adj {
			if color[nb] == cm {
				lost(mid, nb, cm)
			}
		}
	}
	k.c.ChargeOps(arcs, 0)
	k.notices.Flush()
	k.c.Barrier()
	// Collect remote recolor notices (buffered early arrivals included).
	k.drain()
	for _, nr := range k.pending {
		recolor(nr.v)
		k.forbidden.add(nr.v, nr.color)
	}
	k.pending = k.pending[:0]
	for _, v := range u {
		k.colors[v] = -1 // do not let stale colors mask new conflicts
	}
	// Ascending, so that the recolor order (and hence the final coloring)
	// does not depend on the order conflicts and notices were found in.
	// Cleared colors are not re-announced: losers re-color next round and
	// ship fresh colors then; peers comparing against the stale value may
	// raise a spurious extra notice, which is harmless.
	slices.Sort(u)
	return u
}

// pickColor selects the smallest color not used in v's known distance-2
// neighborhood — neighbors (owned and ghost) and neighbors of owned
// neighbors; the remote two-hop layer is invisible, which is exactly what
// speculation tolerates — and not forbidden to v by an earlier notice.
func (k *d2Kernel) pickColor(v int32) int32 {
	k.picker.stamp++
	k.markAdjacent(v) // v itself is uncolored here, so marking around it is harmless below
	for _, u := range k.d.Neighbors(v) {
		if !k.d.IsGhost(u) {
			k.markAdjacent(u)
		}
	}
	f := &k.forbidden
	for i := f.head[v]; i != 0; i = f.next[i-1] {
		k.picker.use(f.color[i-1])
	}
	return k.picker.firstFree()
}
