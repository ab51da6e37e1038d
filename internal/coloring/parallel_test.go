package coloring

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// runParallel distributes g over part, runs the speculative coloring on all
// ranks, and returns the assembled global coloring plus per-rank results.
func runParallel(t *testing.T, g *graph.Graph, part *partition.Partition, opt ParallelOptions, mpiOpts ...mpi.Option) (Colors, []*ParallelResult) {
	t.Helper()
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, part.P)
	var mu sync.Mutex
	mpiOpts = append(mpiOpts, mpi.WithDeadline(30*time.Second))
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := Parallel(c, shares[c.Rank()], opt)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}, mpiOpts...)
	if err != nil {
		t.Fatal(err)
	}
	colors, err := Gather(shares, results)
	if err != nil {
		t.Fatal(err)
	}
	return colors, results
}

func TestParallelProperOnGrid(t *testing.T) {
	g, err := gen.Grid2D(20, 20, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 9} {
		pr, pc := partition.ProcessorGrid(p)
		part, err := partition.Grid2D(20, 20, pr, pc)
		if err != nil {
			t.Fatal(err)
		}
		colors, results := runParallel(t, g, part, ParallelOptions{Seed: 5})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if colors.NumColors() > g.MaxDegree()+1 {
			t.Fatalf("p=%d: %d colors exceeds Δ+1", p, colors.NumColors())
		}
		// All ranks must agree on round count and color count.
		for _, r := range results {
			if r.Rounds != results[0].Rounds || r.NumColors != results[0].NumColors {
				t.Fatalf("p=%d: ranks disagree on rounds/colors", p)
			}
		}
		if results[0].NumColors != colors.NumColors() {
			t.Fatalf("p=%d: reported %d colors, gathered %d", p, results[0].NumColors, colors.NumColors())
		}
	}
}

func TestParallelNumColorsNearSequential(t *testing.T) {
	// Section 5.2: the parallel color count "in general remained nearly the
	// same as the number used by the underlying serial algorithm".
	g, err := gen.Circuit(40, 40, 0.45, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := GreedyOrder(g, naturalOrder(g))
	part, err := partition.Multilevel(g, 8, partition.MultilevelOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 7})
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if colors.NumColors() > seq.NumColors()+2 {
		t.Fatalf("parallel used %d colors, sequential %d", colors.NumColors(), seq.NumColors())
	}
}

func naturalOrder(g *graph.Graph) []graph.Vertex {
	ord := make([]graph.Vertex, g.NumVertices())
	for i := range ord {
		ord[i] = graph.Vertex(i)
	}
	return ord
}

func TestParallelAllCommModes(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1000, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 11, CommMode: mode})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestParallelCommModeTrafficOrdering(t *testing.T) {
	// The paper's Section 4.2 hierarchy: NEW sends fewer messages than FIAC,
	// which sends the same number as FIAB but less volume.
	g, err := gen.Grid2D(40, 40, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(40, 40, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	traffic := map[CommMode]mpi.Stats{}
	for _, mode := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast} {
		w, err := mpi.NewWorld(part.P, mpi.WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			_, err := Parallel(c, shares[c.Rank()], ParallelOptions{Seed: 3, CommMode: mode, SuperstepSize: 100})
			return err
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		traffic[mode] = w.TotalStats()
	}
	neu, fiac, fiab := traffic[CommNeighbors], traffic[CommCustomizedAll], traffic[CommBroadcast]
	if neu.SentMsgs >= fiac.SentMsgs {
		t.Errorf("NEW sent %d msgs, FIAC %d — expected fewer", neu.SentMsgs, fiac.SentMsgs)
	}
	if fiab.SentBytes <= fiac.SentBytes {
		t.Errorf("FIAB sent %d bytes, FIAC %d — expected broadcast volume to dominate", fiab.SentBytes, fiac.SentBytes)
	}
	if neu.SentBytes > fiab.SentBytes {
		t.Errorf("NEW volume %d exceeds FIAB %d", neu.SentBytes, fiab.SentBytes)
	}
}

// TestFenceMessageCount pins what a round costs in messages at s ≥ n, where
// a round is one superstep whose bundles ride the fence: each rank sends and
// receives exactly one color message per peer per round — its neighbor ranks
// under NEW, distance-2 and Jones–Plassmann, every other rank under FIAC and
// FIAB — and distance-2 one RECOLOR message per neighbor rank per round on
// top, however many of those are empty. No bundle here nears the cap.
func TestFenceMessageCount(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 1200, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	opt := func(mode CommMode) ParallelOptions {
		return ParallelOptions{Seed: 9, SuperstepSize: g.NumVertices() + 1, CommMode: mode}
	}
	for _, k := range []struct {
		name string
		// exchanges per round, and whether the peers are every other rank
		fences, all bool
		run         func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error)
	}{
		{"neighbors", false, false, func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return Parallel(c, d, opt(CommNeighbors))
		}},
		{"customized-all", false, true, func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return Parallel(c, d, opt(CommCustomizedAll))
		}},
		{"broadcast", false, true, func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return Parallel(c, d, opt(CommBroadcast))
		}},
		{"distance2", true, false, func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return ParallelDistance2(c, d, opt(CommNeighbors))
		}},
		{"jp", false, false, func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return JonesPlassmann(c, d, 9)
		}},
	} {
		w, err := mpi.NewWorld(part.P, mpi.WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		rounds := make([]int, part.P)
		err = w.Run(func(c *mpi.Comm) error {
			res, err := k.run(c, shares[c.Rank()])
			if err == nil {
				rounds[c.Rank()] = res.Rounds
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if rounds[0] < 2 {
			t.Errorf("%s: %d round(s); the count is only telling over several", k.name, rounds[0])
		}
		for r, d := range shares {
			peers := len(d.NeighborRanks)
			if k.all {
				peers = part.P - 1
			}
			want := int64(rounds[r] * peers)
			if k.fences {
				want += int64(rounds[r] * len(d.NeighborRanks))
			}
			if got := w.RankStats(r).ByFamily[mpi.FamilyColor]; got.SentMsgs != want || got.RecvMsgs != want {
				t.Errorf("%s rank %d: sent %d and received %d color-family messages over %d rounds, want %d each",
					k.name, r, got.SentMsgs, got.RecvMsgs, rounds[r], want)
			}
		}
	}
}

func TestParallelAllOrders(t *testing.T) {
	g, err := gen.Circuit(25, 25, 0.45, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []VertexOrder{BoundaryFirst, InteriorFirst, Interleaved} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 19, Order: o})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("order %v: %v", o, err)
		}
	}
}

func TestParallelConflictPolicies(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 900, false, 23)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []ConflictPolicy{ConflictRandom, ConflictMinID} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 29, Conflict: cp, SuperstepSize: 25})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("policy %v: %v", cp, err)
		}
	}
}

func TestParallelSuperstepSizes(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 700, false, 31)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 7, 100, 100000} {
		colors, results := runParallel(t, g, part, ParallelOptions{Seed: 37, SuperstepSize: s})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		// Smaller supersteps mean fresher information and at least as few
		// conflicts in expectation; just sanity-check convergence speed.
		if results[0].Rounds > 20 {
			t.Fatalf("s=%d: %d rounds", s, results[0].Rounds)
		}
	}
	// Negative superstep size must be rejected.
	whole, err := dgraph.Distribute(g, &partition.Partition{P: 1, Part: make([]int32, g.NumVertices())})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := Parallel(c, whole[0], ParallelOptions{SuperstepSize: -1}); err == nil {
			t.Error("accepted negative superstep size")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelUnderPerturbation(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 700, false, 41)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 43, SuperstepSize: 10},
			mpi.WithPerturbation(seed))
		if err := colors.Verify(g); err != nil {
			t.Fatalf("perturbation %d: %v", seed, err)
		}
	}
}

func TestParallelSingleRank(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 300, false, 47)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := partition.Block1D(g, 1)
	colors, results := runParallel(t, g, part, ParallelOptions{Seed: 1})
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if results[0].Rounds != 1 || results[0].Conflicts != 0 {
		t.Fatalf("single rank: rounds=%d conflicts=%d, want 1, 0", results[0].Rounds, results[0].Conflicts)
	}
}

func TestParallelConvergesInFewRounds(t *testing.T) {
	// The framework papers report convergence within ~6 rounds; allow slack
	// but catch pathological ping-ponging.
	g, err := gen.Circuit(40, 40, 0.45, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 8, 4) // poor partition: many conflicts
	if err != nil {
		t.Fatal(err)
	}
	_, results := runParallel(t, g, part, ParallelOptions{Seed: 53, SuperstepSize: 1000})
	if results[0].Rounds > 10 {
		t.Fatalf("converged in %d rounds, expected <= 10", results[0].Rounds)
	}
}

func TestJonesPlassmannProper(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1000, false, 59)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, part.P)
	var mu sync.Mutex
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := JonesPlassmann(c, shares[c.Rank()], 61)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	colors, err := Gather(shares, results)
	if err != nil {
		t.Fatal(err)
	}
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if colors.NumColors() > g.MaxDegree()+1 {
		t.Fatalf("JP used %d colors, exceeds Δ+1 = %d", colors.NumColors(), g.MaxDegree()+1)
	}
}

func TestFrameworkNeedsFewerRoundsThanJP(t *testing.T) {
	// The framework paper's key claim: speculation needs provably no more
	// rounds than MIS-based coloring, and typically far fewer.
	g, err := gen.Grid2D(30, 30, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(30, 30, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	var specRounds, jpRounds int
	var mu sync.Mutex
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		spec, err := Parallel(c, shares[c.Rank()], ParallelOptions{Seed: 67})
		if err != nil {
			return err
		}
		jp, err := JonesPlassmann(c, shares[c.Rank()], 67)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			specRounds, jpRounds = spec.Rounds, jp.Rounds
			mu.Unlock()
		}
		return nil
	}, mpi.WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if specRounds > jpRounds {
		t.Fatalf("speculative framework took %d rounds, JP %d", specRounds, jpRounds)
	}
}

func TestGatherRejectsInconsistentResults(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, false, 0)
	part, _ := partition.Block1D(g, 2)
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Gather(shares, []*ParallelResult{nil, nil}); err == nil {
		t.Error("accepted nil results")
	}
	short := []*ParallelResult{
		{Colors: make([]int32, shares[0].NLocal)},
		{Colors: make([]int32, 1)},
	}
	if _, err := Gather(shares, short); err == nil {
		t.Error("accepted short result")
	}
	if _, err := Gather(nil, nil); err == nil {
		t.Error("accepted empty gather")
	}
}

// ghostScanDetect is detect as it was before the one color array: the ghost
// test first, then the ghost's color, with v's global id loaded up front.
func ghostScanDetect(d *dgraph.DistGraph, color []int32, opt ParallelOptions, u []int32) []int32 {
	var recolor []int32
	for _, v := range u {
		if int(v) >= d.NumBoundary {
			continue
		}
		cv, gv := color[v], d.GlobalOf(v)
		for _, w := range d.Neighbors(v) {
			if !d.IsGhost(w) || color[w] != cv {
				continue
			}
			if loses(opt.Conflict, opt.Seed, gv, d.GlobalOf(w)) {
				recolor = append(recolor, v)
				break
			}
		}
	}
	return recolor
}

// TestDetectMatchesGhostScan holds detect, which walks only the round's
// boundary vertices and their arcs to ghosts (the cross-arc index), to the
// ghost-first loop over all of u kept above: the same re-color list, in the
// same order, on every rank's share of ER, RMAT and circuit graphs cut by
// block, random and multilevel partitions over 2, 3, 4 and 7 ranks, under
// both conflict policies. The colorings are random over a few colors, so
// equal-colored owned neighbors abound, and about every third boundary vertex
// gets a ghost neighbor of its own color.
func TestDetectMatchesGhostScan(t *testing.T) {
	er, err := gen.ErdosRenyi(400, 1600, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(9, 8, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := gen.Circuit(20, 20, 0.45, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"er", er}, {"rmat", rmat}, {"circuit", circuit}}
	cuts := []struct {
		name string
		cut  func(g *graph.Graph, p int) (*partition.Partition, error)
	}{
		{"block", partition.Block1D},
		{"random", func(g *graph.Graph, p int) (*partition.Partition, error) { return partition.Random(g, p, 3) }},
		{"multilevel", func(g *graph.Graph, p int) (*partition.Partition, error) {
			return partition.Multilevel(g, p, partition.MultilevelOptions{Seed: 1})
		}},
	}
	rng := gen.NewRNG(11)
	var conflicts int
	err = mpi.Run(1, func(c *mpi.Comm) error {
		for _, gg := range graphs {
			for _, cc := range cuts {
				gname, g, cname := gg.name, gg.g, cc.name
				for _, p := range []int{2, 3, 4, 7} {
					part, err := cc.cut(g, p)
					if err != nil {
						return err
					}
					shares, err := dgraph.Distribute(g, part)
					if err != nil {
						return err
					}
					for _, d := range shares {
						for _, policy := range []ConflictPolicy{ConflictRandom, ConflictMinID} {
							color := plantedColoring(d, rng)
							perm := rng.Perm(d.NLocal)
							u := make([]int32, rng.Intn(d.NLocal+1))
							for i := range u {
								u[i] = int32(perm[i])
							}
							opt := ParallelOptions{Conflict: policy, Seed: uint64(rng.Intn(1000))}
							k := &d1Kernel{colorState: &colorState{c: c, d: d, color: color, colors: color[:d.NLocal]}, opt: opt}
							want := ghostScanDetect(d, color, opt, u)
							var boundary []int32 // what speculate collects: u's boundary vertices, in u order
							for _, v := range u {
								if int(v) < d.NumBoundary {
									boundary = append(boundary, v)
								}
							}
							if got := k.detect(slices.Clone(u), boundary); !slices.Equal(got, want) {
								t.Errorf("%s/%s P=%d rank %d %v: detect re-colors %v, the ghost scan %v", gname, cname, p, d.Rank, policy, got, want)
							}
							conflicts += len(want)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if conflicts == 0 {
		t.Fatal("no cell had a conflict to detect")
	}
}

// plantedColoring colors every local index of d at random from -1 and a few
// colors, then gives about every third boundary vertex a ghost neighbor of
// its own color.
func plantedColoring(d *dgraph.DistGraph, rng *gen.RNG) []int32 {
	palette := 2 + rng.Intn(5)
	color := make([]int32, d.NLocal+d.NGhost)
	for i := range color {
		color[i] = int32(rng.Intn(palette+1)) - 1
	}
	var ghosts []int32
	for v := int32(0); int(v) < d.NLocal; v++ {
		if int(v) >= d.NumBoundary || rng.Intn(3) != 0 {
			continue
		}
		ghosts = ghosts[:0]
		for _, w := range d.Neighbors(v) {
			if d.IsGhost(w) {
				ghosts = append(ghosts, w)
			}
		}
		color[ghosts[rng.Intn(len(ghosts))]] = color[v]
	}
	return color
}

// TestInitialOrder holds the order in which round 1 colors — the share's
// local order from the boundary or the interior group on, or the merge of
// the two — to the listing by global id it stands for: the first group
// ascending, then the other, or all owned vertices ascending, for all three
// orders, on every share of a boundary-heavy cut (RMAT, random parts) and a
// boundary-light one (a grid in strips). Distance-2 and Jones–Plassmann color
// in the merged order too.
func TestInitialOrder(t *testing.T) {
	rmat, err := gen.RMAT(10, 8, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := partition.Random(rmat, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(60, 60, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	light, err := partition.Block1D(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		for _, tc := range []struct {
			name     string
			g        *graph.Graph
			part     *partition.Partition
			min, max float64 // bounds on the boundary share of each rank's vertices
		}{{"rmat-random", rmat, heavy, 0.5, 1}, {"grid-strips", grid, light, 0, 0.1}} {
			shares, err := dgraph.Distribute(tc.g, tc.part)
			if err != nil {
				return err
			}
			for _, d := range shares {
				if frac := float64(d.NumBoundary) / float64(d.NLocal); frac < tc.min || frac > tc.max {
					t.Fatalf("%s rank %d: boundary share %.2f, outside [%g, %g]", tc.name, d.Rank, frac, tc.min, tc.max)
				}
				s := &colorState{c: c, d: d, tr: c.Tracer()}
				for _, o := range []VertexOrder{BoundaryFirst, InteriorFirst, Interleaved} {
					first, u := 0, []int32(nil)
					switch o {
					case InteriorFirst:
						first = d.NumBoundary
					case Interleaved:
						first, u = -1, s.ascending()
					}
					var got []int64 // round 1's vertices, by global id
					pick := func(v int32) int32 { got = append(got, d.GlobalOf(v)); return 0 }
					s.rounds, s.colors = 0, make([]int32, d.NLocal)
					done := func(u, _ []int32) []int32 { return nil }
					if err := s.speculate("order", u, first, 1+d.NLocal/3, 1, pick, func([]int32, bool) [][]byte { return nil }, done); err != nil {
						return err
					}
					if want := globalOrder(tc.g, tc.part, d.Rank, o); !slices.Equal(got, want) {
						t.Errorf("%s rank %d %v: round 1 colors %v, want %v", tc.name, d.Rank, o, got, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// globalOrder lists, by global id, the vertices part gives rank in order o,
// read off the graph rather than the share: the boundary vertices (with a
// neighbor in another part) ascending and then the interior ones, the other
// way round, or all of them ascending.
func globalOrder(g *graph.Graph, part *partition.Partition, rank int, o VertexOrder) []int64 {
	var groups [2][]int64 // interior, boundary
	for v, r := range part.Part {
		if int(r) != rank {
			continue
		}
		boundary := 0
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if part.Part[u] != r {
				boundary = 1
			}
		}
		if o == Interleaved {
			boundary = 0
		}
		groups[boundary] = append(groups[boundary], int64(v))
	}
	if o == InteriorFirst {
		return append(groups[0], groups[1]...)
	}
	return append(groups[1], groups[0]...)
}

// TestParallelStopsWhenCanceled pins speculate's check of the cancel signal:
// on a canceled one-rank world, whose collectives never wait, the coloring
// stops at its first superstep with mpi.ErrCanceled.
func TestParallelStopsWhenCanceled(t *testing.T) {
	g, err := gen.Grid2D(20, 20, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, &partition.Partition{P: 1, Part: make([]int32, g.NumVertices())})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(1, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		w.Cancel()
		res, err := Parallel(c, shares[0], ParallelOptions{Seed: 5})
		if res != nil {
			t.Error("a canceled world returned a coloring")
		}
		return err
	})
	if !errors.Is(err, mpi.ErrCanceled) {
		t.Fatalf("Run = %v, want mpi.ErrCanceled", err)
	}
}
