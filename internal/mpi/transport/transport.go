// Package transport abstracts message delivery for the mpi runtime behind a
// Transport interface, so the same algorithms and the same Comm API run over
// two very different substrates:
//
//   - Inproc: the original shared-memory path — every rank lives in this
//     process and a send is a synchronous hand-off into the receiver's
//     mailbox. Zero wire overhead; the default.
//   - TCP: every rank (typically) lives in its own process and messages
//     travel as length-prefixed binary frames over one persistent TCP
//     connection per rank pair. Per-pair FIFO is inherited from connection
//     ordering; rendezvous happens through a rank-0 registry.
//
// A Transport moves transport.Msg values; it knows nothing about mailboxes,
// tags semantics, collectives, or statistics — those stay in package mpi.
// The mpi.World registers one Sink per local rank; the transport invokes the
// sink once per inbound message, in per-sender order. Delivery guarantees
// every backend must provide:
//
//   - Reliable: every accepted Send is delivered exactly once.
//   - Per-pair FIFO: messages from rank a to rank b reach b's sink in send
//     order.
//   - Non-blocking sends: Send may buffer but must not wait for the
//     receiver (mirrors buffered MPI_Isend).
package transport

// Msg is one point-to-point message as the transport sees it.
type Msg struct {
	From, To int
	Tag      int
	// ArriveV is the virtual arrival time stamped by the sender (0 unless
	// the world runs with virtual time); it travels with the payload.
	ArriveV float64
	Payload []byte
}

// Sink consumes inbound messages for one local rank. The transport calls it
// sequentially per sender; the receiver owns the payload afterwards.
type Sink func(m Msg)

// Transport delivers messages between the ranks of one fixed-size job.
type Transport interface {
	// Size reports the number of ranks in the job.
	Size() int
	// Local lists the ranks hosted by this transport instance (ascending).
	// Inproc hosts all of them; a TCP endpoint typically hosts one.
	Local() []int
	// Register installs the delivery callback for a local rank. It must be
	// called for every local rank before Start.
	Register(rank int, sink Sink)
	// Start brings the transport up: for remote backends this is the
	// rendezvous/handshake phase (bind, exchange addresses, connect every
	// rank pair) and it blocks until the full mesh is established.
	Start() error
	// Send ships one message. m.From must be a local rank. It must not
	// block on the receiver; a non-nil error means the transport is broken
	// (e.g. a peer connection died), not that the receiver is slow.
	Send(m Msg) error
	// Close flushes buffered sends and tears the transport down. After
	// Close no further Sends are accepted; inbound messages already on the
	// wire may still be delivered while peers finish closing.
	Close() error
}
