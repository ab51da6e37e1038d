package matching

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestPrecedesIsOneOrder pins the order's two spellings against each other:
// for edges out of one vertex, the shared-endpoint form agrees with the full
// rule wherever the shared endpoint falls, and ties in weight fall to labels.
func TestPrecedesIsOneOrder(t *testing.T) {
	for v := int64(0); v < 5; v++ {
		for a := int64(0); a < 5; a++ {
			for b := int64(0); b < 5; b++ {
				if a == v || b == v || a == b {
					continue
				}
				for _, w := range [][2]float64{{1, 1}, {2, 1}, {1, 2}} {
					full := precedes(w[0], v, a, w[1], b, v)
					if got := better(w[0], a, w[1], b); got != full {
						t.Fatalf("v=%d: better(%g,%d,%g,%d) = %v, precedes says %v", v, w[0], a, w[1], b, got, full)
					}
					if full == precedes(w[1], v, b, w[0], v, a) {
						t.Fatalf("v=%d a=%d b=%d w=%v: order is not strict", v, a, b, w)
					}
				}
			}
		}
	}
}

// crossEdgeShares distributes a single edge over two ranks: each rank's only
// vertex must hear from the other before it can decide.
func crossEdgeShares(t *testing.T) []*dgraph.DistGraph {
	t.Helper()
	g, err := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, &partition.Partition{P: 2, Part: []int32{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

// TestKernelsRefuseForeignFamily: a bundle of a tag family the running kernel
// does not speak is a protocol violation in both kernels, not something to
// park. Each rank plants the foreign bundle at its peer before the kernel
// starts, so per-pair FIFO puts it ahead of the kernel's own traffic.
func TestKernelsRefuseForeignFamily(t *testing.T) {
	shares := crossEdgeShares(t)
	for _, tc := range []struct {
		name    string
		foreign int
		run     func(c *mpi.Comm) error
	}{
		{"async gets a proposal", bTagPropose, func(c *mpi.Comm) error {
			_, err := Parallel(c, shares[c.Rank()], ParallelOptions{})
			return err
		}},
		{"b-suitor gets a match record", matchTag, func(c *mpi.Comm) error {
			_, err := BParallel(c, shares[c.Rank()], []int{1}, ParallelOptions{})
			return err
		}},
	} {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			c.Send(1-c.Rank(), tc.foreign, make([]byte, RecordBytes))
			return tc.run(c)
		}, mpi.WithDeadline(10*time.Second))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("with tag %d", tc.foreign)) {
			t.Errorf("%s: err = %v, want a refusal of tag %d", tc.name, err, tc.foreign)
		}
	}
}

// replyRecorder is an in-process transport that keeps, per (sender, receiver)
// pair, every reply-family payload in send order.
type replyRecorder struct {
	*transport.Inproc
	mu   sync.Mutex
	sent map[[2]int][]byte
}

func (r *replyRecorder) Send(m transport.Msg) error {
	if m.Tag == bTagReply {
		r.mu.Lock()
		key := [2]int{m.From, m.To}
		r.sent[key] = append(binary.AppendUvarint(r.sent[key], uint64(len(m.Payload))), m.Payload...)
		r.mu.Unlock()
	}
	return r.Inproc.Send(m)
}

// TestBSuitorRepliesLeaveInVertexOrder: reply records are a function of the
// input, not of a map's iteration order or of the arrival order of the
// round's proposals — every run puts byte-identical reply bundles on every
// pair of ranks. Virtual time is charged per received record, as in the
// asynchronous kernel.
func TestBSuitorRepliesLeaveInVertexOrder(t *testing.T) {
	g, err := gen.RMAT(7, 5, true, 13)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...mpi.Option) (*replyRecorder, *mpi.World) {
		rec := &replyRecorder{Inproc: transport.NewInproc(part.P), sent: map[[2]int][]byte{}}
		w, err := mpi.NewWorld(part.P, append(opts, mpi.WithTransport(rec), mpi.WithDeadline(30*time.Second))...)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			d := shares[c.Rank()]
			_, err := BParallel(c, d, UniformB(d.NLocal, 2), ParallelOptions{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec, w
	}
	first, _ := run()
	if len(first.sent) == 0 {
		t.Fatal("no reply traffic recorded")
	}
	for seed := uint64(0); seed <= 3; seed++ {
		again, _ := run(mpi.WithPerturbation(seed))
		if len(again.sent) != len(first.sent) {
			t.Fatalf("seed %d: replies on %d rank pairs, first run %d", seed, len(again.sent), len(first.sent))
		}
		for pair, want := range first.sent {
			if !bytes.Equal(again.sent[pair], want) {
				t.Errorf("seed %d: reply bundles %d -> %d differ between runs", seed, pair[0], pair[1])
			}
		}
	}

	// One edge op per record handled, off the wire or within the rank: with
	// γe = 1 and everything else free, the makespan is the busiest rank's
	// count or more, and at least the mean.
	o := obs.NewObserver(part.P, -1)
	_, w := run(mpi.WithVirtualTime(mpi.VirtualTime{GammaEdge: 1}), mpi.WithObserver(o))
	stats := w.TotalStats()
	var handled int64
	for r := 0; r < part.P; r++ {
		handled += o.Registry().Vec("mpi.edge_ops", part.P).At(r).Load()
	}
	if wire := stats.ByFamily[mpi.FamilyBMatchPropose].RecvBytes + stats.ByFamily[mpi.FamilyBMatchReply].RecvBytes; handled*RecordBytes < wire || handled == 0 {
		t.Errorf("%d records handled for %d bytes received", handled, wire)
	}
	if got := w.MaxVirtualTime(); got < float64(handled)/float64(part.P) || got > float64(handled) {
		t.Errorf("virtual makespan %v for %d handled records over %d ranks", got, handled, part.P)
	}
}
