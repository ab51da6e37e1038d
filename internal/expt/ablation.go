package expt

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// AblationInput builds the irregular input the ablation and traffic tables
// run on: the circuit adjacency graph of o's die, grown breadth-first into
// 12 parts (4 when Quick) — decent locality, no refinement — and distributed.
func AblationInput(o Options) (*graph.Graph, []*dgraph.DistGraph, error) {
	o = o.withDefaults()
	g, err := gen.Circuit(o.CircuitSide, o.CircuitSide, 0.45, false, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	p := 12
	if o.Quick {
		p = 4
	}
	part, err := partition.BFS(g, p, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	shares, err := dgraph.Distribute(g, part)
	return g, shares, err
}

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
	_, shares, err := AblationInput(o)
	if err != nil {
		return err
	}
	// Bundling is measured on the weighted grid of the same side instead,
	// over the same number of ranks.
	gridShares, err := GridInstance{Side: o.CircuitSide, Seed: o.Seed}.Shares(len(shares))
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
		t.AddRow(tc.name, m.Traffic.SentMsgs, m.Traffic.SentBytes, m.Records, fmt.Sprintf("%.1f", m.MatchWeight))
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
		t.AddRow(mode.String(), m.Traffic.SentMsgs, m.Traffic.SentBytes, m.Epochs, m.NumColors)
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
		t.AddRow(s, m.Traffic.SentMsgs, m.Conflicts, m.Epochs, m.NumColors)
	}
	t.AddComment("small s: fresh information, few conflicts, many messages; large s: the reverse")
	if err := o.emit(t); err != nil {
		return err
	}

	// 4. Conflict policy. The maximum per-rank re-color count is the
	// load-balance quantity the randomized policy improves.
	t = NewTable("Ablation — conflict resolution policy (randomized vs deterministic)",
		"Policy", "Conflicts", "Rounds", "Colors", "Max per-rank re-colors")
	for _, cp := range []coloring.ConflictPolicy{coloring.ConflictRandom, coloring.ConflictMinID} {
		opt := coloring.ParallelOptions{Seed: o.Seed, Conflict: cp, SuperstepSize: 50}
		m, results, err := measureColoring(shares, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
			return coloring.Parallel(c, d, opt)
		})
		if err != nil {
			return err
		}
		var maxRe int64
		for _, r := range results {
			if r.Conflicts > maxRe {
				maxRe = r.Conflicts
			}
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
	m, err := MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed})
	if err != nil {
		return err
	}
	t.AddRow("speculative (this paper)", m.Epochs, m.NumColors, m.Traffic.SentMsgs)
	m, _, err = measureColoring(shares, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.JonesPlassmann(c, d, o.Seed, 0)
	})
	if err != nil {
		return err
	}
	t.AddRow("Jones-Plassmann (MIS)", m.Epochs, m.NumColors, m.Traffic.SentMsgs)
	t.AddComment("the framework provably needs no more rounds than MIS coloring [Bozdag et al.]")
	return o.emit(t)
}

// Traffic runs one matching and one NEW-variant coloring over the ablation
// input and prints the per-tag-family traffic breakdown — the live view
// `dmgm-trace -watch` renders mid-run, recorded here from finished runs so
// the numbers are reproducible. The user families sum exactly to the
// aggregate counters (asserted in conformance); the runtime family is the
// reserved-tag collective traffic, zero on the in-process backend used here.
func Traffic(o Options) error {
	o = o.withDefaults()
	g, shares, err := AblationInput(o)
	if err != nil {
		return err
	}
	on := fmt.Sprintf("circuit graph (n=%d, m=%d, p=%d)", g.NumVertices(), g.NumEdges(), len(shares))

	m, err := MeasureMatching(shares, matching.ParallelOptions{})
	if err != nil {
		return err
	}
	if err := emitTrafficTable(o, "Per-tag-family traffic — matching, "+on, m.Traffic,
		"REQUEST/SUCCEEDED/FAILED records are one varint each - pair-local edge index, kind in its low bits - inside per-destination bundles (docs/PROTOCOL.md)"); err != nil {
		return err
	}
	m, err = MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, CommMode: coloring.CommNeighbors, SuperstepSize: 100})
	if err != nil {
		return err
	}
	return emitTrafficTable(o, "Per-tag-family traffic — coloring NEW variant, "+on, m.Traffic,
		"color notices are two varints each - pair-local vertex index, color - sent to affected neighbor ranks only (NEW)")
}

// emitTrafficTable renders one per-family breakdown table with its
// reconciliation footer.
func emitTrafficTable(o Options, title string, total mpi.Stats, note string) error {
	t := NewTable(title, "Tag family", "Sent msgs", "Sent bytes", "Recv msgs", "Recv bytes", "Byte share")
	for f := mpi.TagFamily(0); f < mpi.NumTagFamilies; f++ {
		fs := total.ByFamily[f]
		if fs == (mpi.FamilyStats{}) {
			continue
		}
		share := "-"
		if total.SentBytes > 0 && f != mpi.FamilyRuntime {
			share = fmt.Sprintf("%.1f%%", 100*float64(fs.SentBytes)/float64(total.SentBytes))
		}
		t.AddRow(f.String(), fs.SentMsgs, fs.SentBytes, fs.RecvMsgs, fs.RecvBytes, share)
	}
	t.AddRow("aggregate (user)", total.SentMsgs, total.SentBytes, total.RecvMsgs, total.RecvBytes, "100.0%")
	user := total.UserFamilyTotals()
	t.AddComment("user families sum to the aggregate exactly: %d msgs / %d B sent == %d msgs / %d B",
		user.SentMsgs, user.SentBytes, total.SentMsgs, total.SentBytes)
	t.AddComment("%s", note)
	return o.emit(t)
}
