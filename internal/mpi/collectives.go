package mpi

import "sync"

// collectives holds the shared reduction slots. Each collective call is two
// barrier phases: all ranks deposit, one combines (rank 0 side happens on
// every rank identically from the shared slots — cheap at these sizes), all
// ranks read.
type collectives struct {
	mu    sync.Mutex
	i64   []int64
	f64   []float64
	bytes [][]byte
}

func newCollectives(size int) *collectives {
	return &collectives{
		i64:   make([]int64, size),
		f64:   make([]float64, size),
		bytes: make([][]byte, size),
	}
}

// ReduceOp names a reduction operator.
type ReduceOp int

const (
	// OpSum adds contributions.
	OpSum ReduceOp = iota
	// OpMax takes the maximum contribution.
	OpMax
	// OpMin takes the minimum contribution.
	OpMin
	// OpLor is logical OR: nonzero if any contribution is nonzero.
	OpLor
)

// AllreduceInt64 combines one int64 per rank with op and returns the result
// on every rank.
func (c *Comm) AllreduceInt64(x int64, op ReduceOp) int64 {
	if !c.world.allLocal {
		return c.remoteAllreduceInt64(x, op)
	}
	w := c.world
	w.coll.mu.Lock()
	w.coll.i64[c.rank] = x
	w.coll.mu.Unlock()
	c.Barrier()
	out := reduceInt64(w.coll.i64, op)
	c.Barrier() // no rank may overwrite its slot before all have read
	return out
}

func reduceInt64(xs []int64, op ReduceOp) int64 {
	out := xs[0]
	for _, v := range xs[1:] {
		switch op {
		case OpSum:
			out += v
		case OpMax:
			if v > out {
				out = v
			}
		case OpMin:
			if v < out {
				out = v
			}
		case OpLor:
			if v != 0 || out != 0 {
				out = 1
			}
		}
	}
	if op == OpLor && out != 0 {
		out = 1
	}
	return out
}

// AllreduceFloat64 combines one float64 per rank with op. The fold runs in
// rank order on every rank (and on every backend), so the result is bitwise
// identical everywhere.
func (c *Comm) AllreduceFloat64(x float64, op ReduceOp) float64 {
	if !c.world.allLocal {
		return c.remoteAllreduceFloat64(x, op)
	}
	w := c.world
	w.coll.mu.Lock()
	w.coll.f64[c.rank] = x
	w.coll.mu.Unlock()
	c.Barrier()
	out := reduceFloat64(w.coll.f64, op)
	c.Barrier()
	return out
}

func reduceFloat64(xs []float64, op ReduceOp) float64 {
	out := xs[0]
	for _, v := range xs[1:] {
		switch op {
		case OpSum:
			out += v
		case OpMax:
			if v > out {
				out = v
			}
		case OpMin:
			if v < out {
				out = v
			}
		case OpLor:
			if v != 0 || out != 0 {
				out = 1
			}
		}
	}
	if op == OpLor && out != 0 {
		out = 1
	}
	return out
}

// Allgather deposits each rank's byte slice and returns the full set indexed
// by rank, identical on every rank. The returned inner slices are shared;
// callers must not modify them.
func (c *Comm) Allgather(data []byte) [][]byte {
	if !c.world.allLocal {
		return c.remoteAllgather(data)
	}
	w := c.world
	w.coll.mu.Lock()
	w.coll.bytes[c.rank] = data
	w.coll.mu.Unlock()
	c.Barrier()
	out := make([][]byte, w.size)
	copy(out, w.coll.bytes)
	c.Barrier()
	return out
}

// Alltoallv sends chunks[r] to each rank r (nil chunks allowed) and returns
// the chunks received from every rank, indexed by source. It is built from
// point-to-point sends plus a barrier. (The coloring framework's FIAC
// variant, "a customized message to every other processor", has the same
// traffic shape but does not use it: it issues the raw Sends itself and
// drains without blocking.)
func (c *Comm) Alltoallv(tag int, chunks [][]byte) [][]byte {
	if len(chunks) != c.world.size {
		panic("mpi: Alltoallv chunk count != world size")
	}
	for to, data := range chunks {
		if to == c.rank {
			continue
		}
		c.Send(to, tag, data)
	}
	out := make([][]byte, c.world.size)
	out[c.rank] = chunks[c.rank]
	for i := 0; i < c.world.size-1; i++ {
		m := c.recvTagged(tag)
		out[m.From] = m.Data
	}
	c.Barrier()
	return out
}

// recvTagged blocks for the next message with the given tag, stashing any
// differently-tagged messages for later receives (see Comm.stash).
func (c *Comm) recvTagged(tag int) Message {
	for i, m := range c.stash {
		if m.Tag == tag {
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			c.observeArrival(m)
			return m
		}
	}
	for {
		m, _ := c.world.boxes[c.rank].get(true, c.nextPick())
		c.countRecv(m)
		c.observeArrival(m)
		if m.Tag == tag {
			return m
		}
		c.stash = append(c.stash, m)
	}
}
