package expt

import (
	"io"
	"os"
)

// Options configures the experiment harness. Zero values select defaults
// sized for a laptop-class host; Quick shrinks everything for tests.
type Options struct {
	// Out receives the rendered tables (default os.Stdout).
	Out io.Writer
	// CSV, when non-nil, additionally receives each table as CSV.
	CSV io.Writer
	// Seed drives every generator and randomized phase.
	Seed uint64

	// WeakSubgrid is the per-rank subgrid side for Fig 5.1 (paper: 250).
	WeakSubgrid int
	// WeakProcs are the measured rank counts for Fig 5.1 (perfect squares).
	WeakProcs []int
	// WeakModelProcs are model-extended rank counts (perfect squares; the
	// paper's axis reaches 16,384).
	WeakModelProcs []int

	// StrongGrid is the fixed grid side for Fig 5.2 (paper: 32,000).
	StrongGrid int
	// StrongProcs / StrongModelProcs mirror the weak-scaling split.
	StrongProcs      []int
	StrongModelProcs []int

	// CircuitSide sets the circuit generator's die side for Figs 5.3/5.4.
	CircuitSide int
	// CircuitProcs / CircuitModelProcs mirror the grid experiments (the
	// paper's circuit axes reach 4,096).
	CircuitProcs      []int
	CircuitModelProcs []int

	// Superstep is the coloring superstep size for Figs 5.1/5.2 (paper
	// regime: ~1000); Fig 5.4's poorly-partitioned regime uses Superstep100.
	Superstep int

	// Quick shrinks every instance for fast test runs.
	Quick bool
}

// withDefaults returns a copy of o with every unset field filled in.
func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Seed == 0 {
		o.Seed = 20110516 // IPDPS workshop date flavored default
	}
	def := func(v, d, q int) int {
		if v != 0 {
			return v
		}
		if o.Quick {
			return q
		}
		return d
	}
	o.WeakSubgrid = def(o.WeakSubgrid, 125, 24)
	o.StrongGrid = def(o.StrongGrid, 512, 60)
	o.CircuitSide = def(o.CircuitSide, 200, 40)
	o.Superstep = def(o.Superstep, 1000, 100)
	procs := func(v *[]int, d, q []int) {
		if *v != nil {
			return
		}
		*v = d
		if o.Quick {
			*v = q
		}
	}
	procs(&o.WeakProcs, []int{1, 4, 16, 64}, []int{1, 4})
	procs(&o.WeakModelProcs, []int{256, 1024, 4096, 16384}, []int{16})
	procs(&o.StrongProcs, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 4})
	procs(&o.StrongModelProcs, []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384}, []int{16})
	procs(&o.CircuitProcs, []int{2, 4, 8, 16, 32, 64}, []int{2, 4})
	procs(&o.CircuitModelProcs, []int{128, 256, 512, 1024, 2048, 4096}, []int{16})
	return o
}

// emit renders a table to Out (and CSV when configured).
func (o Options) emit(t *Table) error {
	if err := t.Render(o.Out); err != nil {
		return err
	}
	if o.CSV != nil {
		return t.RenderCSV(o.CSV)
	}
	return nil
}
