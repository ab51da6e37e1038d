package coloring

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
)

// distributedKernels names the three kernels that run on the shared core,
// for tests of what the core gives all of them.
var distributedKernels = []goldenKernel{
	{"d1", func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
		return Parallel(c, d, ParallelOptions{Seed: 5, SuperstepSize: 40})
	}},
	{"d2", func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
		return ParallelDistance2(c, d, ParallelOptions{Seed: 5, SuperstepSize: 40})
	}},
	{"jp", func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
		return JonesPlassmann(c, d, 5, 0)
	}},
}

// TestKernelsRecordRoundSpans checks the observability the shared round
// bookkeeping gives every kernel: with an observer attached, each rank
// records exactly Rounds top-level color.round spans, numbered 1..Rounds,
// and the kernels that speculate nest color.superstep / color.detect detail
// spans under the same names distance-1 always had.
func TestKernelsRecordRoundSpans(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 600, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range distributedKernels {
		o := obs.NewObserver(part.P, 0)
		rounds := make([]int, part.P)
		err := mpi.Run(part.P, func(c *mpi.Comm) error {
			res, err := k.run(c, shares[c.Rank()])
			if err == nil {
				rounds[c.Rank()] = res.Rounds
			}
			return err
		}, mpi.WithObserver(o), mpi.WithDeadline(60*time.Second))
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if rounds[0] < 2 {
			t.Fatalf("%s: converged in %d round(s); the input should force several", k.name, rounds[0])
		}
		for r := 0; r < part.P; r++ {
			var roundSpans, detail int
			for _, sp := range o.Tracer(r).Spans() {
				switch sp.Name {
				case "color.round":
					roundSpans++
					if sp.Detail || sp.N != int64(roundSpans) {
						t.Errorf("%s rank %d: color.round #%d has detail=%v n=%d", k.name, r, roundSpans, sp.Detail, sp.N)
					}
				case "color.superstep", "color.detect":
					detail++
					if !sp.Detail {
						t.Errorf("%s rank %d: %s is not a detail span", k.name, r, sp.Name)
					}
				default:
					t.Errorf("%s rank %d: unexpected span %q", k.name, r, sp.Name)
				}
			}
			if roundSpans != rounds[r] {
				t.Errorf("%s rank %d: %d color.round spans for %d rounds", k.name, r, roundSpans, rounds[r])
			}
			// One color.detect per round, and at least one superstep in the
			// first, for the kernels that speculate.
			if wantDetail := k.name != "jp"; wantDetail != (detail > rounds[r]) {
				t.Errorf("%s rank %d: %d detail spans over %d rounds", k.name, r, detail, rounds[r])
			}
		}
	}
}

// TestForeignTagPanics checks the one drain refuses traffic that is not the
// running kernel's: any tag outside the protocol on every kernel (Jones–
// Plassmann used to apply such a message as color records), and a RECOLOR
// bundle on the kernels that do not speak RECOLOR. One rank suffices — the
// message is already in the mailbox when the kernel first drains — and keeps
// the panic from wedging a peer in a barrier.
func TestForeignTagPanics(t *testing.T) {
	g, err := gen.Grid2D(4, 4, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Block1D(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range distributedKernels {
		for _, tag := range []int{7, recolorTag} {
			if k.name == "d2" && tag == recolorTag {
				continue
			}
			err := mpi.Run(1, func(c *mpi.Comm) error {
				c.Send(0, tag, make([]byte, noticeMax))
				_, err := k.run(c, shares[0])
				return err
			}, mpi.WithDeadline(30*time.Second))
			if want := fmt.Sprintf("unexpected tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: foreign tag %d: got %v, want a panic naming %q", k.name, tag, err, want)
			}
		}
	}
}
