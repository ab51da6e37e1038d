package transport

import "fmt"

// Inproc is the shared-memory backend: all ranks live in this process and a
// send is a synchronous call into the receiver's sink (which, in the mpi
// runtime, is an unbounded mailbox enqueue). This is the extracted form of
// the original in-process delivery path and remains the zero-overhead
// default; it exists as a Transport so that the runtime above it is
// backend-agnostic.
type Inproc struct {
	size  int
	sinks []Sink
}

// NewInproc creates the shared-memory transport for size ranks.
func NewInproc(size int) *Inproc {
	return &Inproc{size: size, sinks: make([]Sink, size)}
}

// Size implements Transport.
func (t *Inproc) Size() int { return t.size }

// Local implements Transport: every rank is local.
func (t *Inproc) Local() []int {
	all := make([]int, t.size)
	for i := range all {
		all[i] = i
	}
	return all
}

// Register implements Transport.
func (t *Inproc) Register(rank int, sink Sink) { t.sinks[rank] = sink }

// Start implements Transport; nothing to bring up.
func (t *Inproc) Start() error {
	for r, s := range t.sinks {
		if s == nil {
			return fmt.Errorf("transport: inproc rank %d has no sink", r)
		}
	}
	return nil
}

// Send implements Transport: a synchronous hand-off, so anything sent before
// a synchronization point is already in the receiver's mailbox after it.
func (t *Inproc) Send(m Msg) error {
	t.sinks[m.To](m)
	return nil
}

// Close implements Transport; nothing to tear down.
func (t *Inproc) Close() error { return nil }
