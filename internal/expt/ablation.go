package expt

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// Ablations runs the design-choice studies DESIGN.md §5 calls out and
// prints one table per knob, each measured on real distributed runs:
//
//  1. matching message bundling on/off,
//  2. coloring communication mode (NEW / FIAC / FIAB),
//  3. superstep size sweep,
//  4. conflict-resolution policy,
//  5. interior/boundary vertex order,
//  6. speculative framework vs Jones–Plassmann rounds.
func Ablations(o Options) error {
	o = o.withDefaults()
	side := o.CircuitSide
	g, err := gen.Circuit(side, side, 0.45, false, o.Seed)
	if err != nil {
		return err
	}
	p := 12
	if o.Quick {
		p = 4
	}
	part, err := partition.BFS(g, p, o.Seed)
	if err != nil {
		return err
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		return err
	}
	wg, err := gen.Grid2D(side, side, true, o.Seed)
	if err != nil {
		return err
	}
	pr, pc := partition.ProcessorGrid(p)
	gridPart, err := partition.Grid2D(side, side, pr, pc)
	if err != nil {
		return err
	}
	gridShares, err := dgraph.Distribute(wg, gridPart)
	if err != nil {
		return err
	}

	// 1. Message bundling.
	t := NewTable("Ablation — matching message bundling (Section 1's key optimization)",
		"Config", "Runtime msgs", "Bytes", "Records", "Weight")
	for _, tc := range []struct {
		name string
		opt  matching.ParallelOptions
	}{
		{"bundled (64 KiB)", matching.ParallelOptions{}},
		{"unbundled (1 record/msg)", matching.ParallelOptions{MaxBundleBytes: matching.RecordBytes}},
	} {
		m, err := MeasureMatching(gridShares, tc.opt)
		if err != nil {
			return err
		}
		var msgs, bytes int64
		for _, r := range m.Ranks {
			msgs += r.Msgs
			bytes += r.Bytes
		}
		t.AddRow(tc.name, msgs, bytes, bytes/matching.RecordBytes, fmt.Sprintf("%.1f", m.MatchWeight))
	}
	t.AddComment("same matching weight; bundling collapses per-record messages into per-pair bundles")
	if err := o.emit(t); err != nil {
		return err
	}

	// 2. Communication modes.
	t = NewTable("Ablation — coloring communication mode (Section 4.2)",
		"Mode", "Runtime msgs", "Bytes", "Rounds", "Colors")
	for _, mode := range []coloring.CommMode{coloring.CommNeighbors, coloring.CommCustomizedAll, coloring.CommBroadcast} {
		m, err := MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, CommMode: mode, SuperstepSize: 100})
		if err != nil {
			return err
		}
		var msgs, bytes int64
		for _, r := range m.Ranks {
			msgs += r.Msgs
			bytes += r.Bytes
		}
		t.AddRow(mode.String(), msgs, bytes, m.Epochs, m.NumColors)
	}
	t.AddComment("NEW < FIAC in messages; FIAC < FIAB in volume — the paper's hierarchy")
	if err := o.emit(t); err != nil {
		return err
	}

	// 3. Superstep sweep.
	t = NewTable("Ablation — superstep size s (Section 4.1's tuning question)",
		"s", "Runtime msgs", "Conflicts", "Rounds", "Colors")
	for _, s := range []int{1, 10, 100, 1000, 10000} {
		m, err := MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, SuperstepSize: s})
		if err != nil {
			return err
		}
		var msgs int64
		for _, r := range m.Ranks {
			msgs += r.Msgs
		}
		t.AddRow(s, msgs, m.Conflicts, m.Epochs, m.NumColors)
	}
	t.AddComment("small s: fresh information, few conflicts, many messages; large s: the reverse")
	if err := o.emit(t); err != nil {
		return err
	}

	// 4. Conflict policy.
	t = NewTable("Ablation — conflict resolution policy (randomized vs deterministic)",
		"Policy", "Conflicts", "Rounds", "Colors", "Max per-rank re-colors")
	for _, cp := range []coloring.ConflictPolicy{coloring.ConflictRandom, coloring.ConflictMinID} {
		maxRe, m, err := measureConflictSkew(shares, coloring.ParallelOptions{Seed: o.Seed, Conflict: cp, SuperstepSize: 50})
		if err != nil {
			return err
		}
		t.AddRow(cp.String(), m.Conflicts, m.Epochs, m.NumColors, maxRe)
	}
	t.AddComment("random r(v) spreads re-coloring; min-id concentrates it on low-id-heavy ranks")
	if err := o.emit(t); err != nil {
		return err
	}

	// 5. Vertex order.
	t = NewTable("Ablation — interior/boundary coloring order",
		"Order", "Conflicts", "Rounds", "Colors")
	for _, vo := range []coloring.VertexOrder{coloring.BoundaryFirst, coloring.InteriorFirst, coloring.Interleaved} {
		m, err := MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, Order: vo})
		if err != nil {
			return err
		}
		t.AddRow(vo.String(), m.Conflicts, m.Epochs, m.NumColors)
	}
	if err := o.emit(t); err != nil {
		return err
	}

	// 6. Framework vs Jones–Plassmann.
	t = NewTable("Ablation — speculative framework vs Jones–Plassmann baseline",
		"Algorithm", "Rounds", "Colors", "Runtime msgs")
	spec, err := MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed})
	if err != nil {
		return err
	}
	var specMsgs int64
	for _, r := range spec.Ranks {
		specMsgs += r.Msgs
	}
	t.AddRow("speculative (this paper)", spec.Epochs, spec.NumColors, specMsgs)
	jpRounds, jpColors, jpMsgs, err := measureJP(shares, o.Seed)
	if err != nil {
		return err
	}
	t.AddRow("Jones-Plassmann (MIS)", jpRounds, jpColors, jpMsgs)
	t.AddComment("the framework provably needs no more rounds than MIS coloring [Bozdag et al.]")
	return o.emit(t)
}

// measureConflictSkew runs the coloring and reports the maximum per-rank
// re-color count (the load-balance quantity the randomized policy improves).
func measureConflictSkew(shares []*dgraph.DistGraph, opt coloring.ParallelOptions) (int64, *Measurement, error) {
	m, results, err := measureColoring(shares, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.Parallel(c, d, opt)
	})
	if err != nil {
		return 0, nil, err
	}
	var maxRe int64
	for _, r := range results {
		if r.Conflicts > maxRe {
			maxRe = r.Conflicts
		}
	}
	return maxRe, m, nil
}

// measureJP runs the Jones–Plassmann baseline over the shares.
func measureJP(shares []*dgraph.DistGraph, seed uint64) (rounds int, colors int, msgs int64, err error) {
	m, _, err := measureColoring(shares, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.JonesPlassmann(c, d, seed, 0)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, prof := range m.Ranks {
		msgs += prof.Msgs
	}
	return int(m.Epochs), m.NumColors, msgs, nil
}
