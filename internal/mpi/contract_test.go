package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The runtime contract table: one set of scripted rank programs, run on both
// backends (the in-process world, plain and under perturbation seeds, and
// one-rank-per-world over localhost TCP) at several rank counts, with and
// without the virtual-time model. Per program every backend must agree with
// the plain in-process run on what each rank observed, on each rank's
// traffic counters — the runtime family's collective messages included — and,
// bit for bit, on each rank's model clock after every step; and every rank
// must leave a Barrier on the same clock.
//
// A row's tcpClocks says how the tcp model clocks relate to the in-process
// ones: equal, or knownDrift for a divergence recorded (and asserted, so a
// stale marker fails) until the runtime is fixed.

type clockRelation int

const (
	equal clockRelation = iota
	knownDrift
)

// rankLog is what one rank observed: its results in program order, its clock
// (as float64 bits) after every step, and which of those steps left a Barrier.
type rankLog struct {
	vals   []string
	clocks []uint64
	fences []int
}

// probe is the handle a contract program runs against.
type probe struct {
	c   *Comm
	log *rankLog
}

// step records one observation and the clock it left the rank on.
func (p probe) step(format string, args ...any) {
	p.log.vals = append(p.log.vals, fmt.Sprintf(format, args...))
	p.log.clocks = append(p.log.clocks, math.Float64bits(p.c.vclock))
}

func (p probe) barrier() {
	p.c.Barrier()
	p.log.fences = append(p.log.fences, len(p.log.clocks))
	p.step("barrier")
}

// work charges a rank-dependent amount of compute, so ranks enter the next
// collective on different clocks.
func (p probe) work(i int) {
	p.c.ChargeOps(int64(3*p.c.Rank()+i), int64(p.c.Rank()*i+1))
	p.step("work")
}

// sendNext posts one tagged message of n bytes to the next rank of the ring.
func (p probe) sendNext(tag, n int) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(p.c.Rank() + i)
	}
	p.c.Send((p.c.Rank()+1)%p.c.Size(), tag, data)
	p.step("sent tag %d", tag)
}

func (p probe) recv() {
	m := p.c.Recv()
	p.step("recv from %d tag %d data %v", m.From, m.Tag, m.Data)
}

// drainAll takes everything TryRecv offers and records it as a sorted set:
// cross-sender order is the one thing backends and seeds may disagree on.
// TryRecv must never offer a reserved tag.
func (p probe) drainAll() {
	var got []string
	for {
		m, ok := p.c.TryRecv()
		if !ok {
			break
		}
		if m.Tag < 0 {
			panic(fmt.Sprintf("rank %d: TryRecv surfaced reserved tag %d", p.c.Rank(), m.Tag))
		}
		got = append(got, fmt.Sprintf("%d/%d/%v", m.From, m.Tag, m.Data))
	}
	sort.Strings(got)
	p.step("drained %v", got)
}

// exchange runs one NeighborExchange on tag with each of peers, sending it
// bytes that depend on both ends and the round, and records what came back.
func (p probe) exchange(tag, round int, peers []int) {
	out := make([][]byte, len(peers))
	for i, to := range peers {
		out[i] = bytes.Repeat([]byte{byte(p.c.Rank())}, (p.c.Rank()+to+round)%4)
	}
	p.step("exchanged on %d with %v: %v", tag, peers, p.c.NeighborExchange(tag, peers, out))
}

// ringPeers lists the rank's ring neighbours, each once, itself never.
func ringPeers(c *Comm) []int {
	n := c.Size()
	peers := []int{(c.Rank() + n - 1) % n, (c.Rank() + 1) % n}
	slices.Sort(peers)
	return slices.DeleteFunc(slices.Compact(peers), func(r int) bool { return r == c.Rank() })
}

// Contributions whose reductions are order- and width-sensitive: int64
// extremes (the sum wraps, the max must not), and float64 values whose
// rank-order sum is not associative, including signed zeros.
func intAt(rank, i int) int64 {
	return [...]int64{math.MaxInt64, math.MinInt64, -1, int64(i), 1 << 40}[(rank+i)%5]
}

func floatAt(rank, i int) float64 {
	return [...]float64{1e16, 1, -1e16, math.Copysign(0, -1), 0.1, float64(i) + 0.5}[(rank+i)%6]
}

// rootSum gathers one float64 per rank on rank 0 and adds them there in rank
// order from rank 0's, as a job's tail folds the matching weight, and
// returns the sum's bits on rank 0 and 0 elsewhere.
func rootSum(c *Comm, x float64) uint64 {
	parts := c.Gather(binary.BigEndian.AppendUint64(nil, math.Float64bits(x)))
	var sum float64
	for r, p := range parts {
		if v := math.Float64frombits(binary.BigEndian.Uint64(p)); r == 0 {
			sum = v
		} else {
			sum += v
		}
	}
	return math.Float64bits(sum)
}

var contractTable = []struct {
	name      string
	tcpClocks clockRelation
	prog      func(p probe)
}{
	{"barriers back to back", equal, func(p probe) {
		for i := 0; i < 50; i++ {
			p.work(i)
			p.barrier()
		}
	}},
	{"collectives back to back", equal, func(p probe) {
		c := p.c
		for i := 0; i < 50; i++ {
			p.work(i)
			p.step("isum %d", c.AllreduceInt64(intAt(c.Rank(), i), OpSum))
			p.step("imax %d", c.AllreduceInt64(intAt(c.Rank(), i), OpMax))
			p.step("fsum %x", rootSum(c, floatAt(c.Rank(), i)))
			p.step("zsum %x", rootSum(c, math.Copysign(0, -1)))
			p.step("gather %v", c.Allgather(make([]byte, (c.Rank()+i)%4)))
			p.barrier()
		}
	}},
	// A user message sent before the sender's collective and received after
	// the receiver's: the collective's own receive pops it first and must
	// park it without touching the clock.
	{"send crosses barrier", equal, func(p probe) {
		p.work(1)
		p.sendNext(7, 3)
		p.barrier()
		p.recv()
		p.barrier()
	}},
	{"send crosses allreduce", equal, func(p probe) {
		p.work(2)
		p.sendNext(TagColorBase, 16)
		p.step("sum %d", p.c.AllreduceInt64(int64(p.c.Rank()), OpSum))
		p.recv()
		p.barrier()
	}},
	{"send crosses allgather", equal, func(p probe) {
		p.work(3)
		p.sendNext(TagMatchBase, 17)
		p.step("gather %v", p.c.Allgather([]byte{byte(p.c.Rank())}))
		p.recv()
		p.barrier()
	}},
	// The other stash interleaving: rank 0 blocks in Recv while its peers
	// are already in the barrier, so their reserved-tag messages are what
	// Recv pops first and must hold for the Barrier that follows.
	{"barrier messages cross a recv", equal, func(p probe) {
		if p.c.Size() == 1 {
			return
		}
		p.work(1)
		switch p.c.Rank() {
		case 0:
			p.recv()
		case 1:
			p.c.Send(0, 5, []byte("payload"))
			p.step("sent")
		}
		p.barrier()
	}},
	// Two messages cross the barrier; the first is then drained unseen, the
	// second received — each counted once, neither moving the clock early.
	{"drain after barrier", equal, func(p probe) {
		p.sendNext(5, 40)
		p.sendNext(6, 8)
		p.barrier()
		p.step("dropped %d", p.c.DrainTag(5))
		p.recv()
		p.step("dropped %d", p.c.DrainTag(5))
		p.barrier()
	}},
	// The speculative-coloring round: ship to every peer, Barrier, drain
	// without blocking, agree on a count.
	{"ship barrier drain rounds", equal, func(p probe) {
		c := p.c
		for round := 0; round < 4; round++ {
			p.work(round)
			for to := 0; to < c.Size(); to++ {
				if to != c.Rank() {
					c.Send(to, TagColorBase+round, []byte{byte(round), byte(c.Rank())})
					c.Send(to, TagColorBase+round, make([]byte, round))
				}
			}
			p.step("shipped")
			p.barrier()
			p.drainAll()
			p.step("left %d", c.AllreduceInt64(int64(round+c.Rank()), OpMax))
		}
	}},
	// The rooted gather: rank 0 collects every rank's bytes in rank order
	// and leaves on the latest entry clock, the others get nil and leave on
	// their own. A user message sent ahead of a rank's Gather is parked by
	// rank 0's collection without touching its clock, and ranks racing
	// ahead into the next Gather, or into an Allgather on the same reserved
	// tag, take nothing from this one.
	{"rooted gathers", equal, func(p probe) {
		c := p.c
		for i := 0; i < 30; i++ {
			p.work(i)
			if i%3 == 0 {
				p.sendNext(7, i%4)
			}
			p.step("gather %v", c.Gather(bytes.Repeat([]byte{byte(c.Rank())}, (c.Rank()+i)%4)))
			if i%3 == 0 {
				p.recv()
			}
			if i%5 == 0 {
				p.step("allgather %v", c.Allgather([]byte{byte(i)}))
			}
		}
		p.barrier()
	}},
	// The coloring round on the neighbour exchange: a send ahead of the
	// exchange is in once it returns, TryRecv and DrainTag on the same tag
	// see no exchange message, and a second exchange on that tag fences the
	// drain. A peer done with this rank's messages races on into its next
	// exchange while this rank still collects the current one's from its
	// other peer, so exchange messages of two rounds share a queue.
	{"ring exchanges on one tag", equal, func(p probe) {
		c := p.c
		peers := ringPeers(c)
		for round := 0; round < 20; round++ {
			p.work(round)
			p.sendNext(TagColorBase, round%3)
			p.exchange(TagColorBase, round, peers)
			p.drainAll()
			p.step("dropped %d", c.DrainTag(TagColorBase))
			p.exchange(TagColorBase, round+1, peers)
		}
	}},
	{"exchanges with every rank", equal, func(p probe) {
		var peers []int
		for r := range p.c.Size() {
			if r != p.c.Rank() {
				peers = append(peers, r)
			}
		}
		for round := 0; round < 10; round++ {
			p.work(round)
			p.exchange(TagMatchBase+round%2, round, peers)
			p.exchange(7, round, peers)
		}
		p.barrier()
	}},
}

// contractRun is one backend's account of a program: per-rank logs and
// per-rank traffic, with the runtime family's counts set apart so that a
// difference there is reported as such.
type contractRun struct {
	logs    []rankLog
	stats   []Stats
	runtime []FamilyStats
}

func runContract(t *testing.T, backend string, p int, prog func(probe), opts ...Option) contractRun {
	t.Helper()
	run := contractRun{logs: make([]rankLog, p), stats: make([]Stats, p), runtime: make([]FamilyStats, p)}
	fn := func(c *Comm) error {
		prog(probe{c, &run.logs[c.Rank()]})
		return nil
	}
	for r, w := range runOn(t, backend, p, fn, opts...) {
		s := w.RankStats(r)
		run.runtime[r] = s.ByFamily[FamilyRuntime]
		s.ByFamily[FamilyRuntime] = FamilyStats{}
		run.stats[r] = s
	}
	return run
}

func TestRuntimeContract(t *testing.T) {
	vt := VirtualTime{Alpha: 5, Beta: 0.25, GammaVertex: 0.5, GammaEdge: 0.125, Sync: 10}
	backends := []struct {
		name string
		opts []Option
	}{
		{"inproc", nil},
		{"inproc/seed=1", []Option{WithPerturbation(1)}},
		{"inproc/seed=77", []Option{WithPerturbation(77)}},
		{"inproc/seed=12345", []Option{WithPerturbation(12345)}},
		{"tcp", nil},
	}
	for _, row := range contractTable {
		for _, p := range []int{1, 2, 3, 5} {
			for _, modeled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/P=%d/vt=%v", row.name, p, modeled), func(t *testing.T) {
					var ref contractRun
					for i, b := range backends {
						opts := b.opts
						if modeled {
							opts = append(opts[:len(opts):len(opts)], WithVirtualTime(vt))
						}
						got := runContract(t, b.name, p, row.prog, opts...)
						if i == 0 {
							ref = got
							checkFences(t, b.name, got)
							continue
						}
						if !reflect.DeepEqual(got.stats, ref.stats) {
							t.Errorf("%s: user-family stats differ from inproc:\n got  %+v\n want %+v", b.name, got.stats, ref.stats)
						}
						if !reflect.DeepEqual(got.runtime, ref.runtime) {
							t.Errorf("%s: runtime family differs from inproc:\n got  %+v\n want %+v", b.name, got.runtime, ref.runtime)
						}
						sameClocks := true
						for r := range got.logs {
							if !reflect.DeepEqual(got.logs[r].vals, ref.logs[r].vals) {
								t.Errorf("%s rank %d: observations differ from inproc:\n got  %v\n want %v", b.name, r, got.logs[r].vals, ref.logs[r].vals)
							}
							sameClocks = sameClocks && reflect.DeepEqual(got.logs[r].clocks, ref.logs[r].clocks)
						}
						// At P = 1 no message crosses a rank: nothing to drift.
						drifts := b.name == "tcp" && row.tcpClocks == knownDrift && modeled && p > 1
						switch {
						case drifts && sameClocks:
							t.Errorf("%s: clocks now equal inproc: flip the row from knownDrift to equal", b.name)
						case !drifts && !sameClocks:
							t.Errorf("%s: clocks differ from inproc:\n got  %v\n want %v", b.name, clocksOf(got), clocksOf(ref))
						}
						if !drifts {
							checkFences(t, b.name, got)
						}
					}
				})
			}
		}
	}
}

// checkFences asserts that every rank left its k-th Barrier on the same clock.
func checkFences(t *testing.T, backend string, run contractRun) {
	t.Helper()
	first := run.logs[0]
	for r, l := range run.logs {
		if len(l.fences) != len(first.fences) {
			t.Fatalf("%s: rank %d passed %d barriers, rank 0 %d", backend, r, len(l.fences), len(first.fences))
		}
		for k, at := range l.fences {
			if got, want := l.clocks[at], first.clocks[first.fences[k]]; got != want {
				t.Errorf("%s: rank %d left barrier %d at %v, rank 0 at %v", backend, r, k,
					math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
}

func clocksOf(run contractRun) [][]float64 {
	out := make([][]float64, len(run.logs))
	for r, l := range run.logs {
		for _, b := range l.clocks {
			out[r] = append(out[r], math.Float64frombits(b))
		}
	}
	return out
}
