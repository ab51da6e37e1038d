package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP is the socket backend: one persistent connection per rank pair carries
// length-prefixed binary frames (see frame.go). Per-pair FIFO follows from
// TCP's byte-stream ordering plus the single writer/reader per connection;
// sends never block the caller because each connection has an unbounded
// outbound queue drained by a writer goroutine.
//
// One TCP instance hosts exactly one rank. Rendezvous goes through a
// registry: rank 0 listens at a well-known address; every other rank dials
// it, registers its own data-listener address, and receives the full address
// table once everyone has registered.
//
// After rendezvous the mesh is established deterministically: rank i dials
// rank j exactly when i < j, identifying itself with a hello frame; Start
// returns once every pair connection exists.
type TCP struct {
	rank int
	size int
	opt  TCPOptions

	ln   net.Listener
	sink Sink

	mu       sync.Mutex
	err      error // first fatal transport error
	closed   bool
	started  bool
	peers    []*tcpPeer // indexed by rank; nil for self
	inbound  int        // accepted pair connections so far
	arrived  chan struct{}
	regAddrs map[int]string
	regConns []regConn
	regDone  chan struct{}
}

// rendezvousTimeout bounds an endpoint's whole bind/registry/connect phase.
const rendezvousTimeout = 30 * time.Second

// TCPOptions configures a TCP transport endpoint.
type TCPOptions struct {
	// Rank and Size identify this endpoint within the job.
	Rank, Size int
	// Registry is the rank-0 rendezvous address ("host:port"). Rank 0 binds
	// it; other ranks dial it to exchange data-listener addresses.
	Registry string
	// Bind is the data-listener address for non-zero ranks (default
	// "127.0.0.1:0"). Ignored when Listener is set.
	Bind string
	// Listener is a pre-bound listener for this rank, used by in-process
	// clusters and tests to avoid port races. The transport takes ownership.
	Listener net.Listener
	// ShutdownGrace bounds how long Close waits for peers to finish closing
	// before forcing connections shut (default 10s).
	ShutdownGrace time.Duration
}

type regConn struct {
	conn net.Conn
	rank int
}

// tcpPeer is one end of a pair connection.
type tcpPeer struct {
	rank int
	conn net.Conn
	r    *bufio.Reader // must be reused across handshake and data phases

	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte // encoded frames awaiting the writer
	closing bool
	broken  bool

	writerDone chan struct{}
	readerDone chan struct{}
}

func newTCPPeer(rank int, conn net.Conn, r *bufio.Reader) *tcpPeer {
	if r == nil {
		r = bufio.NewReaderSize(conn, 64<<10)
	}
	p := &tcpPeer{
		rank:       rank,
		conn:       conn,
		r:          r,
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// NewTCP creates (but does not start) a TCP transport endpoint.
func NewTCP(opt TCPOptions) (*TCP, error) {
	if opt.Size <= 0 {
		return nil, fmt.Errorf("transport: non-positive size %d", opt.Size)
	}
	if opt.Rank < 0 || opt.Rank >= opt.Size {
		return nil, fmt.Errorf("transport: rank %d out of range [0,%d)", opt.Rank, opt.Size)
	}
	if opt.Registry == "" && opt.Size > 1 {
		return nil, fmt.Errorf("transport: need a registry address")
	}
	if opt.Bind == "" {
		opt.Bind = "127.0.0.1:0"
	}
	if opt.ShutdownGrace == 0 {
		opt.ShutdownGrace = 10 * time.Second
	}
	return &TCP{
		rank:    opt.Rank,
		size:    opt.Size,
		opt:     opt,
		peers:   make([]*tcpPeer, opt.Size),
		arrived: make(chan struct{}),
		regDone: make(chan struct{}),
	}, nil
}

// Size implements Transport.
func (t *TCP) Size() int { return t.size }

// Local implements Transport: a TCP endpoint hosts exactly its own rank.
func (t *TCP) Local() []int { return []int{t.rank} }

// Register implements Transport.
func (t *TCP) Register(rank int, sink Sink) {
	if rank != t.rank {
		panic(fmt.Sprintf("transport: sink for rank %d registered on tcp endpoint of rank %d", rank, t.rank))
	}
	t.sink = sink
}

// Addr reports the data-listener address, available once Start has bound it.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Start implements Transport: bind, rendezvous, and connect the full mesh.
func (t *TCP) Start() error {
	if t.sink == nil {
		return fmt.Errorf("transport: tcp rank %d started without a sink", t.rank)
	}
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return fmt.Errorf("transport: tcp rank %d started twice", t.rank)
	}
	t.started = true
	t.mu.Unlock()
	deadline := time.Now().Add(rendezvousTimeout)

	if err := t.bind(); err != nil {
		return err
	}
	if t.rank == 0 {
		close(t.arrived) // rank 0 accepts no data connections (0 dials all)
	}
	go t.acceptLoop()

	table, err := t.rendezvous(deadline)
	if err != nil {
		return fmt.Errorf("transport: rank %d rendezvous: %w", t.rank, err)
	}
	// Deterministic mesh: dial every higher rank, await every lower one.
	for j := t.rank + 1; j < t.size; j++ {
		conn, err := dialRetry(table[j], deadline)
		if err != nil {
			return fmt.Errorf("transport: rank %d dialing rank %d at %s: %w", t.rank, j, table[j], err)
		}
		if _, err := conn.Write(encodeHello(t.rank, j)); err != nil {
			conn.Close()
			return fmt.Errorf("transport: rank %d hello to rank %d: %w", t.rank, j, err)
		}
		if !t.installPeer(newTCPPeer(j, conn, nil)) {
			conn.Close()
			return t.firstErr()
		}
	}
	select {
	case <-t.arrived:
	case <-time.After(time.Until(deadline)):
		t.mu.Lock()
		missing := []int{}
		for j := 0; j < t.rank; j++ {
			if t.peers[j] == nil {
				missing = append(missing, j)
			}
		}
		t.mu.Unlock()
		return fmt.Errorf("transport: rank %d timed out waiting for connections from ranks %v", t.rank, missing)
	}
	if err := t.firstErr(); err != nil {
		return err
	}
	// The mesh is complete: spawn the I/O loops.
	t.mu.Lock()
	peers := append([]*tcpPeer(nil), t.peers...)
	t.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			go t.writeLoop(p)
			go t.readLoop(p)
		}
	}
	return nil
}

// bind establishes this rank's data listener.
func (t *TCP) bind() error {
	if t.ln = t.opt.Listener; t.ln != nil {
		return nil
	}
	addr := t.opt.Bind
	if t.rank == 0 {
		addr = t.opt.Registry
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: rank %d binding %s: %w", t.rank, addr, err)
	}
	t.ln = ln
	return nil
}

// rendezvous produces the full per-rank address table.
func (t *TCP) rendezvous(deadline time.Time) ([]string, error) {
	if t.size == 1 {
		return []string{t.Addr()}, nil
	}
	if t.rank == 0 {
		// The accept loop collects register frames; wait for all of them.
		select {
		case <-t.regDone:
		case <-time.After(time.Until(deadline)):
			t.mu.Lock()
			have := len(t.regAddrs)
			t.mu.Unlock()
			return nil, fmt.Errorf("timed out waiting for registrations (have %d of %d)", have, t.size-1)
		}
		t.mu.Lock()
		table := make([]string, t.size)
		table[0] = t.ln.Addr().String()
		for rank, addr := range t.regAddrs {
			table[rank] = addr
		}
		conns := append([]regConn(nil), t.regConns...)
		t.mu.Unlock()
		frame := encodeTable(table)
		for _, rc := range conns {
			if _, err := rc.conn.Write(frame); err != nil {
				return nil, fmt.Errorf("sending table to rank %d: %w", rc.rank, err)
			}
			rc.conn.Close()
		}
		return table, nil
	}
	// Non-zero rank: dial the registry, announce our listener, read the table.
	conn, err := dialRetry(t.opt.Registry, deadline)
	if err != nil {
		return nil, fmt.Errorf("dialing registry %s: %w", t.opt.Registry, err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeRegister(t.rank, t.ln.Addr().String())); err != nil {
		return nil, fmt.Errorf("registering: %w", err)
	}
	conn.SetReadDeadline(deadline)
	kind, body, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		return nil, fmt.Errorf("reading table: %w", err)
	}
	if kind != frameTable {
		return nil, fmt.Errorf("registry answered with frame kind %d", kind)
	}
	table, err := decodeTable(body)
	if err != nil {
		return nil, err
	}
	if len(table) != t.size {
		return nil, fmt.Errorf("registry table covers %d ranks, want %d", len(table), t.size)
	}
	return table, nil
}

// acceptLoop classifies inbound connections: hello frames establish pair
// connections (ranks below ours dial us), register frames feed the rank-0
// registry.
func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handleInbound(conn)
	}
}

func (t *TCP) handleInbound(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	kind, body, err := readFrame(r)
	if err != nil {
		conn.Close()
		return
	}
	switch kind {
	case frameHello:
		from, to, herr := decodeHello(body)
		if herr != nil || to != t.rank || from < 0 || from >= t.rank {
			t.fail(fmt.Errorf("transport: rank %d got bad hello (from=%d to=%d err=%v)", t.rank, from, to, herr))
			conn.Close()
			return
		}
		// The same bufio reader carries over: data frames may already be
		// buffered behind the hello.
		if !t.installPeer(newTCPPeer(from, conn, r)) {
			conn.Close()
			return
		}
		t.mu.Lock()
		t.inbound++
		if t.inbound == t.rank { // ranks 0..rank-1 all connected
			close(t.arrived)
		}
		t.mu.Unlock()
	case frameRegister:
		rank, addr, rerr := decodeRegister(body)
		if rerr != nil || t.rank != 0 || rank <= 0 || rank >= t.size {
			t.fail(fmt.Errorf("transport: rank %d got bad registration (rank=%d err=%v)", t.rank, rank, rerr))
			conn.Close()
			return
		}
		t.mu.Lock()
		if t.regAddrs == nil {
			t.regAddrs = make(map[int]string)
		}
		if _, dup := t.regAddrs[rank]; dup {
			t.mu.Unlock()
			t.fail(fmt.Errorf("transport: rank %d registered twice", rank))
			conn.Close()
			return
		}
		t.regAddrs[rank] = addr
		t.regConns = append(t.regConns, regConn{conn: conn, rank: rank})
		done := len(t.regAddrs) == t.size-1
		t.mu.Unlock()
		if done {
			close(t.regDone)
		}
	default:
		conn.Close()
	}
}

// installPeer records the pair connection; false on duplicates or shutdown.
func (t *TCP) installPeer(p *tcpPeer) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.peers[p.rank] != nil {
		t.errLocked(fmt.Errorf("transport: duplicate connection for rank pair (%d,%d)", t.rank, p.rank))
		return false
	}
	t.peers[p.rank] = p
	return true
}

// Send implements Transport.
func (t *TCP) Send(m Msg) error {
	if m.To == t.rank { // self-send loops back without touching the wire
		t.sink(m)
		return nil
	}
	if err := t.firstErr(); err != nil {
		return err
	}
	t.mu.Lock()
	closed := t.closed
	p := t.peers[m.To]
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: send on closed tcp endpoint (rank %d)", t.rank)
	}
	if p == nil {
		return fmt.Errorf("transport: rank %d has no connection to rank %d (not started?)", t.rank, m.To)
	}
	frame := encodeData(m)
	p.mu.Lock()
	if p.closing || p.broken {
		p.mu.Unlock()
		return fmt.Errorf("transport: connection %d->%d is shut down", t.rank, m.To)
	}
	p.queue = append(p.queue, frame)
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// writeLoop drains the peer's outbound queue onto the socket, preserving
// order; on shutdown it flushes everything queued and half-closes the
// connection so the peer's reader sees a clean EOF after the last byte.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer close(p.writerDone)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closing {
			p.cond.Wait()
		}
		batch := p.queue
		p.queue = nil
		done := p.closing && len(batch) == 0
		p.mu.Unlock()
		if len(batch) > 0 {
			bufs := net.Buffers(batch)
			if _, err := bufs.WriteTo(p.conn); err != nil {
				t.fail(fmt.Errorf("transport: write %d->%d: %w", t.rank, p.rank, err))
				p.mu.Lock()
				p.broken = true
				p.queue = nil
				p.mu.Unlock()
				return
			}
			continue // re-check the queue before considering shutdown
		}
		if done {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// readLoop decodes inbound frames and hands them to the local sink in wire
// order, which is what gives the per-pair FIFO guarantee.
func (t *TCP) readLoop(p *tcpPeer) {
	defer close(p.readerDone)
	for {
		kind, body, err := readFrame(p.r)
		if err != nil {
			if !isEOF(err) && !t.isClosed() {
				t.fail(fmt.Errorf("transport: read %d<-%d: %w", t.rank, p.rank, err))
			}
			return
		}
		if kind != frameData {
			t.fail(fmt.Errorf("transport: unexpected frame kind %d on data connection %d<-%d", kind, t.rank, p.rank))
			return
		}
		m, err := decodeData(p.rank, body)
		if err != nil {
			t.fail(err)
			return
		}
		if m.To != t.rank {
			t.fail(fmt.Errorf("transport: rank %d received message addressed to rank %d", t.rank, m.To))
			return
		}
		t.sink(m)
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// Close implements Transport: flush every outbound queue, half-close the
// connections, wait (bounded) for peers to finish, then tear down.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := append([]*tcpPeer(nil), t.peers...)
	t.mu.Unlock()

	for _, p := range peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.closing = true
		p.mu.Unlock()
		p.cond.Signal()
	}
	// One shared deadline for the whole shutdown; a fresh timer per wait
	// (time.After is one-shot, so a single channel cannot serve N selects).
	deadline := time.Now().Add(t.opt.ShutdownGrace)
	for _, p := range peers {
		if p == nil {
			continue
		}
		select {
		case <-p.writerDone:
		case <-time.After(time.Until(deadline)):
			p.conn.Close()
		}
	}
	// Readers end when the peer half-closes its side; bound the wait so a
	// crashed peer cannot wedge shutdown, then release the sockets.
	for _, p := range peers {
		if p == nil {
			continue
		}
		select {
		case <-p.readerDone:
		case <-time.After(time.Until(deadline)):
		}
		p.conn.Close()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	return t.firstErr()
}

func (t *TCP) fail(err error) {
	t.mu.Lock()
	t.errLocked(err)
	t.mu.Unlock()
}

func (t *TCP) errLocked(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *TCP) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// dialRetry dials with exponential backoff until the deadline, tolerating
// peers that have not bound their listeners yet.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, fmt.Errorf("deadline exceeded")
		}
		conn, err := net.DialTimeout("tcp", addr, left)
		if err == nil {
			return conn, nil
		}
		if time.Until(deadline) < backoff {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// NewLocalTCPCluster builds a set of n TCP endpoints on localhost, one per
// rank, that rendezvous through rank 0's pre-bound listener as the registry
// (no port races), as a -launch fleet does. It is the in-process harness used
// by tests and demos to exercise the real socket path; multi-process jobs
// use NewTCP directly.
func NewLocalTCPCluster(n int) ([]*TCP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eps := make([]*TCP, n)
	for i := range eps {
		var own net.Listener // the registry is rank 0's; the others bind 127.0.0.1:0
		if i == 0 {
			own = ln
		}
		// A short grace keeps lone Closes snappy: an in-process cluster has no
		// network partitions to be patient about.
		eps[i], err = NewTCP(TCPOptions{Rank: i, Size: n, Registry: ln.Addr().String(), Listener: own, ShutdownGrace: 2 * time.Second})
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	return eps, nil
}
