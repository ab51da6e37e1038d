package expt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/perfmodel"
)

// ScalingRow is one point of a scaling series (one processor count).
type ScalingRow struct {
	P        int
	Input    string
	Cut      float64 // share of the input's edges that cross ranks at P
	Measured bool
	HostWall float64 // seconds on this host; 0 for model-only points
	Sim      float64 // asynchronous virtual-time simulation, seconds (measured points)
	Model    float64 // α–β–γ BG/P model prediction, seconds
	Ideal    float64 // ideal-scaling reference, seconds
	Epochs   float64 // outer iterations / rounds
	Extra    string  // algorithm-specific (weight / colors)
}

// instance is the input side of a scaling study: which graph p ranks see.
// It supplies the shares to run on, the per-rank structure to model on where
// the host cannot run, and the row's Input cell — nothing else.
type instance interface {
	Shares(p int) ([]*dgraph.DistGraph, error)
	structure(p int) ([]rankStructure, error)
	input(p int, cut float64) string
}

// GridInstance is the five-point grid of Figs 5.1 and 5.2 in uniform 2D
// blocks over partition.ProcessorGrid(p): Side x Side overall, or per rank
// when Weak (so the grid grows with p).
type GridInstance struct {
	Side int
	Weak bool
	Seed uint64
}

func (g GridInstance) spec(p int) (dgraph.GridSpec, error) {
	pr, pc := partition.ProcessorGrid(p)
	k1, k2 := g.Side, g.Side
	if g.Weak {
		k1, k2 = g.Side*pr, g.Side*pc
	}
	spec := dgraph.GridSpec{K1: k1, K2: k2, PR: pr, PC: pc}
	return spec, spec.Validate()
}

// Shares generates the weighted grid and distributes it in the spec's
// blocks, as every other input is cut.
func (g GridInstance) Shares(p int) ([]*dgraph.DistGraph, error) {
	spec, err := g.spec(p)
	if err != nil {
		return nil, err
	}
	gg, err := gen.Grid2D(spec.K1, spec.K2, true, g.Seed)
	if err != nil {
		return nil, err
	}
	part, err := partition.Grid2D(spec.K1, spec.K2, spec.PR, spec.PC)
	if err != nil {
		return nil, err
	}
	return dgraph.Distribute(gg, part)
}

// structure is block arithmetic: the weak-scaling axis reaches grids of
// 2.5e8 vertices that are never built.
func (g GridInstance) structure(p int) ([]rankStructure, error) {
	spec, err := g.spec(p)
	if err != nil {
		return nil, err
	}
	out := make([]rankStructure, p)
	for r := range out {
		s := &out[r]
		if s.nLocal, s.arcs, s.cross, s.nbrs, err = spec.RankStructure(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (g GridInstance) input(p int, _ float64) string {
	spec, _ := g.spec(p)
	return fmt.Sprintf("%dx%d", spec.K1, spec.K2)
}

// CircuitInstance is a circuit-simulation graph under the multilevel
// partitioner, where the partition quality (edge cut) — not the grid's
// perfect locality — governs communication: refined is the METIS-like regime
// of Fig 5.3, unrefined the ParMETIS-like one of Fig 5.4.
type CircuitInstance struct {
	G      *graph.Graph
	Refine bool
	Seed   uint64
}

// Shares partitions the graph into p parts and distributes it.
func (c CircuitInstance) Shares(p int) ([]*dgraph.DistGraph, error) {
	var part *partition.Partition
	var err error
	if p == 1 {
		part, err = partition.Block1D(c.G, 1)
	} else {
		part, err = partition.Multilevel(c.G, p, partition.MultilevelOptions{
			Seed:     c.Seed + uint64(p),
			NoRefine: !c.Refine,
		})
	}
	if err != nil {
		return nil, err
	}
	return dgraph.Distribute(c.G, part)
}

// structure partitions and distributes for real: the structure (including
// the cut that grows with p) is exact at model scale, only the algorithm's
// traffic densities are carried over from a measured run.
func (c CircuitInstance) structure(p int) ([]rankStructure, error) {
	shares, err := c.Shares(p)
	return structureOf(shares), err
}

func (c CircuitInstance) input(_ int, cut float64) string {
	return fmt.Sprintf("cut %.1f%%", 100*cut)
}

// algorithm is the kernel side of a scaling study: how to measure it over
// shares and what its Notes cell says of the run. A new kernel gets onto
// Figs 5.1–5.4 as one more value of this type named by rows of figures.
type algorithm struct {
	measure func(o Options, shares []*dgraph.DistGraph) (*Measurement, error)
	notes   func(m *Measurement) string
}

var (
	matchingAlg = algorithm{
		measure: func(_ Options, shares []*dgraph.DistGraph) (*Measurement, error) {
			return MeasureMatching(shares, matching.ParallelOptions{})
		},
		notes: func(m *Measurement) string { return fmt.Sprintf("W=%.1f", m.MatchWeight) },
	}
	coloringAlg = algorithm{
		measure: func(o Options, shares []*dgraph.DistGraph) (*Measurement, error) {
			return MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, SuperstepSize: o.Superstep})
		},
		notes: func(m *Measurement) string { return fmt.Sprintf("colors=%d", m.NumColors) },
	}
)

// figure is one scaling series of the paper's evaluation: an algorithm, the
// ideal line it is held against, and the text printed around its table.
type figure struct {
	tag      string // names the series in errors
	title    string // verbs, if any, are filled by the caller of render
	alg      algorithm
	weak     bool // ideal time is flat; otherwise it falls as 1/p
	comments []string
}

// The figure table.
var (
	fig51top = figure{"fig 5.1 matching", "Fig 5.1 (top) — weak scaling, matching, five-point grids", matchingAlg, true,
		[]string{"paper: 2.5e-2..6.5e-2 s, near-flat from 1,024 to 16,384 procs"}}
	fig51bottom = figure{"fig 5.1 coloring", "Fig 5.1 (bottom) — weak scaling, coloring, five-point grids", coloringAlg, true,
		[]string{"paper: ~1e-4..1e-2 s, near-flat; coloring is cheaper than matching"}}
	fig52top = figure{"fig 5.2 matching", "Fig 5.2 (top) — strong scaling, matching, fixed grid", matchingAlg, false,
		[]string{"paper: near-ideal log-log slope from 512 to 16,384 procs",
			"matching weight must be identical at every measured P (Section 5.2)"}}
	fig52bottom = figure{"fig 5.2 coloring", "Fig 5.2 (bottom) — strong scaling, coloring, fixed grid", coloringAlg, false,
		[]string{"paper: near-ideal slope; absolute times below matching"}}
	fig53 = figure{"fig 5.3", "Fig 5.3 — strong scaling, matching, circuit bipartite graph (n=%d, m=%d)", matchingAlg, false,
		[]string{"paper: 3.2M vertices / 7.7M edges, METIS distribution, 6% cut at 4,096 procs",
			"scaling degrades where the cut term overtakes per-rank compute"}}
	fig54 = figure{"fig 5.4", "Fig 5.4 — strong scaling, coloring, circuit adjacency graph (n=%d, m=%d, cut %.0f%% at max procs)", coloringAlg, false,
		[]string{"paper: 1.5M vertices / 3M edges, ParMETIS distribution, 40% cut at 4,096 procs",
			"superstep size 100 (poorly-partitioned regime)"}}
)

// run is the one scaling study under Figs 5.1–5.4. It runs the algorithm on
// the instance at every measured rank count, fits the epoch trend, and
// extends the series to the model rank counts by pricing the instance's
// structure there at the traffic densities of the largest measured run. Both
// estimators use the Blue Gene/P coefficients directly: the analytic
// bulk-synchronous model here, and the virtual-time simulation already
// embedded in the measured runs.
func (f figure) run(o Options, in instance, measured, model []int) ([]ScalingRow, error) {
	fail := func(err error) ([]ScalingRow, error) { return nil, fmt.Errorf("expt: %s: %w", f.tag, err) }
	if len(measured) == 0 {
		return fail(fmt.Errorf("no measured points"))
	}
	machine := perfmodel.BlueGeneP()
	var rows []ScalingRow
	var cs CommScalars // of the last, largest measured run
	epochs := make([]float64, len(measured))
	for i, p := range measured {
		shares, err := in.Shares(p)
		if err != nil {
			return fail(err)
		}
		m, err := f.alg.measure(o, shares)
		if err != nil {
			return fail(err)
		}
		st := structureOf(shares)
		cs = commScalarsOf(st, m)
		epochs[i] = float64(m.Epochs)
		rows = append(rows, ScalingRow{
			P: p, Cut: cutFraction(st), Measured: true,
			HostWall: m.WallHost.Seconds(), Sim: m.VirtualSeconds,
			Model:  machine.RunTime(m.Ranks), // real counters for measured points
			Epochs: epochs[i], Extra: f.alg.notes(m),
		})
	}
	epochFit := FitLogTrend(measured, epochs, 1)
	for _, p := range model {
		st, err := in.structure(p)
		if err != nil {
			return fail(err)
		}
		e := int64(math.Round(epochFit(p)))
		rows = append(rows, ScalingRow{P: p, Cut: cutFraction(st), Model: machine.RunTime(cs.profiles(st, e)), Epochs: float64(e)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].P < rows[j].P })
	for i := range rows {
		r := &rows[i]
		r.Input = in.input(r.P, r.Cut)
		r.Ideal = rows[0].Model
		if !f.weak {
			r.Ideal = rows[0].Model * float64(rows[0].P) / float64(r.P)
		}
	}
	return rows, nil
}

// render prints a series under the figure's title and comments.
func (f figure) render(o Options, rows []ScalingRow, titleArgs ...any) error {
	t := NewTable(fmt.Sprintf(f.title, titleArgs...),
		"Procs", "Input", "Source", "Host wall", "Sim async", "Model (BG/P)", "Ideal", "Epochs", "Notes")
	for _, r := range rows {
		src := "model"
		host, sim := "-", "-"
		if r.Measured {
			src = "measured"
			host = formatSeconds(r.HostWall)
			sim = formatSeconds(r.Sim)
		}
		t.AddRow(r.P, r.Input, src, host, sim, formatSeconds(r.Model), formatSeconds(r.Ideal),
			fmt.Sprintf("%.0f", r.Epochs), r.Extra)
	}
	for _, c := range f.comments {
		t.AddComment("%s", c)
	}
	return o.emit(t)
}

// emit runs the series and prints it; for titles without verbs.
func (f figure) emit(o Options, in instance, measured, model []int) ([]ScalingRow, error) {
	rows, err := f.run(o, in, measured, model)
	if err != nil {
		return nil, err
	}
	return rows, f.render(o, rows)
}

// gridFigure emits the matching (top) and coloring (bottom) series of a grid
// figure; whether the grid grows with p is the figure's weak flag.
func gridFigure(o Options, top, bottom figure, side int, measured, model []int) (matchRows, colorRows []ScalingRow, err error) {
	in := GridInstance{Side: side, Weak: top.weak, Seed: o.Seed}
	if matchRows, err = top.emit(o, in, measured, model); err != nil {
		return nil, nil, err
	}
	if colorRows, err = bottom.emit(o, in, measured, model); err != nil {
		return nil, nil, err
	}
	return matchRows, colorRows, nil
}

// Fig51 reproduces the weak-scaling study on five-point grids (paper Fig.
// 5.1): per-rank subgrid fixed, rank count grows, ideal time is flat. It
// returns the matching (top) and coloring (bottom) series.
func Fig51(o Options) (matchRows, colorRows []ScalingRow, err error) {
	o = o.withDefaults()
	if err := checkPositive("WeakSubgrid", o.WeakSubgrid); err != nil {
		return nil, nil, err
	}
	return gridFigure(o, fig51top, fig51bottom, o.WeakSubgrid, o.WeakProcs, o.WeakModelProcs)
}

// Fig52 reproduces the strong-scaling study on a fixed five-point grid
// (paper Fig. 5.2: 32,000 x 32,000 on 512–16,384 procs, log–log near-ideal).
func Fig52(o Options) (matchRows, colorRows []ScalingRow, err error) {
	o = o.withDefaults()
	if err := checkPositive("StrongGrid", o.StrongGrid); err != nil {
		return nil, nil, err
	}
	matchRows, colorRows, err = gridFigure(o, fig52top, fig52bottom, o.StrongGrid, o.StrongProcs, o.StrongModelProcs)
	// The paper's invariance check: identical weight at every p.
	var w0 string
	for _, r := range matchRows {
		if !r.Measured {
			continue
		}
		if w0 == "" {
			w0 = r.Extra
		} else if r.Extra != w0 {
			return nil, nil, fmt.Errorf("expt: matching weight varies with P: %q vs %q", w0, r.Extra)
		}
	}
	return matchRows, colorRows, err
}

// Fig53 reproduces the matching strong-scaling study on the bipartite
// circuit-simulation graph with a good (METIS-like) partition — the paper
// reports 6 % edge cut at 4,096 processors and impressive-but-sub-ideal
// scaling.
func Fig53(o Options) ([]ScalingRow, error) {
	o = o.withDefaults()
	b, err := gen.CircuitBipartite(o.CircuitSide, o.CircuitSide, 0.45, o.Seed)
	if err != nil {
		return nil, err
	}
	rows, err := fig53.run(o, CircuitInstance{G: b.Graph, Refine: true, Seed: o.Seed}, o.CircuitProcs, o.CircuitModelProcs)
	if err != nil {
		return nil, err
	}
	return rows, fig53.render(o, rows, b.NumVertices(), b.NumEdges())
}

// Fig54 reproduces the coloring strong-scaling study on the circuit
// adjacency graph with a poor (ParMETIS-like, unrefined) partition — the
// paper reports a 40 % edge cut at 4,096 processors and earlier, harder
// degradation than Fig 5.3.
func Fig54(o Options) ([]ScalingRow, error) {
	o = o.withDefaults()
	g, err := gen.Circuit(o.CircuitSide, o.CircuitSide, 0.45, false, o.Seed)
	if err != nil {
		return nil, err
	}
	// The poorly-partitioned regime favors small supersteps (Section 4.1:
	// "a superstep size close to a hundred").
	o.Superstep = 100
	rows, err := fig54.run(o, CircuitInstance{G: g, Seed: o.Seed}, o.CircuitProcs, o.CircuitModelProcs)
	if err != nil {
		return nil, err
	}
	var cutAtMax float64
	for _, r := range rows {
		if r.Measured {
			cutAtMax = r.Cut
		}
	}
	return rows, fig54.render(o, rows, g.NumVertices(), g.NumEdges(), 100*cutAtMax)
}

// RunAll regenerates every table and figure in order.
func RunAll(o Options) error {
	if _, err := Table11(o); err != nil {
		return err
	}
	if _, err := Table11WeightSweep(o); err != nil {
		return err
	}
	if err := Table51(o); err != nil {
		return err
	}
	if _, _, err := Fig51(o); err != nil {
		return err
	}
	if _, _, err := Fig52(o); err != nil {
		return err
	}
	if _, err := Fig53(o); err != nil {
		return err
	}
	if _, err := Fig54(o); err != nil {
		return err
	}
	if err := Ablations(o); err != nil {
		return err
	}
	return Traffic(o)
}
