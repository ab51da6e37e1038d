package dmgm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/order"
	"repro/internal/partition"
)

func TestEndToEndMatching(t *testing.T) {
	g, err := Grid2D(16, 16, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := Match(g)
	if err := VerifyMatching(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionGrid2D(16, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, part, Job{Algorithm: AlgoMatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMatching(g, res.Mates); err != nil {
		t.Fatal(err)
	}
	// The matchings are identical edge sets; the per-rank weight sum may
	// differ from the sequential sum in the last ulp (summation order).
	for v := range seq {
		if res.Mates[v] != seq[v] {
			t.Fatalf("vertex %d: parallel mate %d, sequential %d", v, res.Mates[v], seq[v])
		}
	}
	if got, want := res.Weight, seq.Weight(g); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("parallel weight %g, sequential %g", got, want)
	}
	if res.Messages == 0 {
		t.Error("no messages recorded for a 4-rank run")
	}
}

// TestWeightIsRankOrderSum: a job's weight, folded on rank 0 from the
// gathered headers, has the bits of the ranks' local weights added in rank
// order from rank 0's — what every rank's float allreduce gave before the
// job's tail became one gather.
func TestWeightIsRankOrderSum(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 1500, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 4, 7} {
		part, err := partition.Random(g, p, 5)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Place(g, part)
		if err != nil {
			t.Fatal(err)
		}
		local := make([]float64, p)
		err = mpi.Run(p, func(c *mpi.Comm) error {
			res, err := matching.Parallel(c, pl.shares[c.Rank()], matching.ParallelOptions{})
			if err == nil {
				local[c.Rank()] = res.LocalWeight
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want := local[0]
		for _, w := range local[1:] {
			want += w
		}
		res, err := Solve(g, part, Job{Algorithm: AlgoMatch})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Weight) != math.Float64bits(want) {
			t.Errorf("P=%d: weight %v (%x), rank-order sum %v (%x)", p, res.Weight, math.Float64bits(res.Weight), want, math.Float64bits(want))
		}
	}
}

func TestEndToEndColoring(t *testing.T) {
	g, err := gen.Circuit(30, 30, 0.45, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Color(g, OrderSmallestLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionMultilevel(g, 4, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(g, part, Job{Algorithm: AlgoColor, Params: Params{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, res.Coloring); err != nil {
		t.Fatal(err)
	}
	lo, hi := ColoringBounds(g)
	if res.Colors < lo || res.Colors > hi {
		t.Fatalf("parallel colors %d outside bounds [%d,%d]", res.Colors, lo, hi)
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestExactBipartiteFacade(t *testing.T) {
	b, err := gen.RandomBipartite(20, 20, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MatchExactBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	approx := Match(b.Graph)
	if approx.Weight(b.Graph) > exact.Weight(b.Graph)+1e-9 {
		t.Fatal("approximation exceeds optimum")
	}
}

func TestFacadeRejectsBadPartition(t *testing.T) {
	g, err := Grid2D(4, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Partition{P: 2, Part: []int32{0}}
	for _, algo := range []string{AlgoMatch, AlgoColor, AlgoJP} {
		if _, err := Solve(g, bad, Job{Algorithm: algo}); err == nil {
			t.Errorf("Solve accepted a bad partition for a %s job", algo)
		}
	}
}

func TestMismatchedWorldRefusedBeforeDistribute(t *testing.T) {
	g, err := Grid2D(4, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	good, err := partition.Block1D(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	const want = "world of 3 ranks for a 2-way partition"
	// The second partition is also invalid for g, which only distributing
	// would find out: the world-size refusal must come first.
	for name, part := range map[string]*Partition{"valid": good, "invalid": {P: 2, Part: []int32{0}}} {
		if _, err := placeFor(w, g, part); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s partition on a mismatched world: %v", name, err)
		}
	}
	// A placement already cut is refused by the driver before any rank runs.
	pl, err := Place(g, good)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{AlgoMatch, AlgoColor, AlgoJP} {
		if _, err := RunJob(w, g, pl, Job{Algorithm: algo}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s job on a mismatched world: %v", algo, err)
		}
	}
}

func TestBanner(t *testing.T) {
	if !strings.Contains(String(), Version) {
		t.Fatal("banner missing version")
	}
}

func TestDistance2Facade(t *testing.T) {
	g, err := gen.Circuit(16, 16, 0.45, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := coloring.GreedyDistance2(g, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoringDistance2(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionBFS(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// RunJob verifies the distance-2 coloring before it serializes it.
	res := runJob(t, g, part, Job{Algorithm: AlgoColor, Params: Params{Seed: 5, Distance2: true}})
	// Distance-2 needs at least as many colors as distance-1.
	d1, err := Color(g, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Colors < d1.NumColors() {
		t.Fatalf("distance-2 used %d colors, distance-1 %d", res.Colors, d1.NumColors())
	}
}

// runJob runs job on part's shares of g through Solve.
func runJob(t *testing.T, g *Graph, part *Partition, job Job) *JobResult {
	t.Helper()
	res, err := Solve(g, part, job)
	if err != nil {
		t.Fatalf("%+v: %v", job, err)
	}
	return res
}

// TestZeroJobRuns: a job that names only its algorithm runs with the
// defaults Normalize fills in — the same result as the job that spells them.
func TestZeroJobRuns(t *testing.T) {
	g, err := Grid2D(12, 12, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Block1D(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for zero, explicit := range map[Job]Job{
		{Algorithm: AlgoColor}: {Algorithm: AlgoColor, Params: Params{Seed: 1, Superstep: 1000, Comm: "neighbors"}},
		{Algorithm: AlgoMatch}: {Algorithm: AlgoMatch, Params: Params{Seed: 1, Superstep: 1000, Comm: "neighbors"}},
	} {
		if got, want := runJob(t, g, part, zero).Text, runJob(t, g, part, explicit).Text; got != want {
			t.Errorf("%+v gives another result than %+v", zero, explicit)
		}
	}
}

// TestNormalizeRefuses: the checks are the daemon's, word for word, for every
// algorithm a CLI can name.
func TestNormalizeRefuses(t *testing.T) {
	for _, tc := range []struct {
		job  Job
		want string
	}{
		{Job{Algorithm: "sort"}, `unknown algorithm "sort"`},
		{Job{Algorithm: AlgoColor, Params: Params{Superstep: -5}}, "superstep must be positive, got -5"},
		{Job{Algorithm: AlgoColor, Params: Params{Comm: "gossip"}}, `unknown comm mode "gossip"`},
		{Job{Algorithm: AlgoMatch, Params: Params{Distance2: true}}, "distance2 applies to color jobs only"},
		{Job{Algorithm: AlgoJP, Params: Params{Distance2: true}}, "distance2 applies to color jobs only"},
	} {
		if err := tc.job.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: %v, want %q", tc.job, err, tc.want)
		}
	}
}

// TestRunJobRefusesForeignPlacement: a placement is only good for the graph
// it was cut from, and RunJob says so before anything runs — a cache handing
// out placements by key must not be able to pair one with another graph.
func TestRunJobRefusesForeignPlacement(t *testing.T) {
	g, err := Grid2D(6, 6, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Algorithm: AlgoMatch}
	for name, other := range map[string]func() (*Graph, error){
		"another size":            func() (*Graph, error) { return Grid2D(6, 7, true, 1) },
		"same size, another edge": func() (*Graph, error) { return gen.ErdosRenyi(36, 59, true, 1) },
	} {
		og, err := other()
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.Block1D(og, 2)
		if err != nil {
			t.Fatal(err)
		}
		foreign, err := Place(og, part)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(w, g, foreign, job); err == nil || !strings.Contains(err.Error(), "placement of a graph with") {
			t.Errorf("%s: RunJob on a placement cut from another graph: %v", name, err)
		}
		// The world was not touched: the same one still runs the right pair.
		if res, err := RunJob(w, og, foreign, job); err != nil || res.Text == "" {
			t.Errorf("%s: RunJob on the placement's own graph after the refusal: %v", name, err)
		}
	}
}
