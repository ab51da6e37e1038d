// Package ingest is the streaming graph-ingest subsystem of the serving
// layer: resumable chunked uploads feeding a streaming decoder, with a
// content-addressed graph store underneath (docs/PROTOCOL.md §7).
//
// A client opens a session (POST /v1/uploads), sends the encoded graph as
// fixed-size chunks (PUT /v1/uploads/{id}/chunks/{n}) in any order, each
// idempotently replayable and checksum-guarded, and finalizes (POST
// .../complete). The session feeds the contiguous prefix to a streaming
// decoder as chunks land, so by the time the last chunk arrives the graph is
// already decoded and fingerprinted — and for DMGB streams, whose header
// carries the graph fingerprint, a session over content the daemon already
// holds short-circuits after the first chunk: the client learns the
// graph_ref immediately and aborts the remaining transfer.
//
// Jobs then reference the graph by fingerprint (`graph_ref`), decoupling the
// upload's lifetime from the jobs': one transfer, any number of runs.
package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Session states, as reported in status answers.
const (
	// StateUploading accepts chunks.
	StateUploading = "uploading"
	// StateComplete holds a decoded, stored graph; graph_ref is set.
	StateComplete = "complete"
	// StateShortCircuit is complete-without-transfer: the declared
	// fingerprint matched content the daemon already had.
	StateShortCircuit = "short_circuit"
	// StateFailed is terminal: decode or validation failed; see Error.
	StateFailed = "failed"
)

// Config sizes a Manager. The zero value gets production-sane defaults.
type Config struct {
	// TTL expires sessions idle longer than this (default 2 minutes).
	TTL time.Duration
	// SweepEvery is the expiry scan interval (default TTL/4, clamped).
	SweepEvery time.Duration
	// MaxSessions bounds concurrently open sessions (default 64).
	MaxSessions int
	// MaxBytes bounds one session's received bytes (default 1 GiB).
	MaxBytes int64
	// MaxChunkBytes bounds the declared chunk size (default 16 MiB).
	MaxChunkBytes int64
	// Store receives decoded graphs; required. A DMGB session declaring a
	// fingerprint it contains short-circuits.
	Store *Store
	// Admit gates session opens — the serving layer charges uploads against
	// per-tenant budgets here (docs/PROTOCOL.md §8). Called before the
	// session exists, it returns either a release hook, which the manager
	// runs exactly once when the session leaves the uploading state (or
	// immediately, if opening fails), or the *Refusal to answer the open
	// with. nil admits every open.
	Admit func(r *http.Request) (release func(), err *Refusal)
	// Registry carries the ingest metrics; nil disables them.
	Registry *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.TTL <= 0 {
		c.TTL = 2 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.TTL / 4
	}
	if c.SweepEvery < 10*time.Millisecond {
		c.SweepEvery = 10 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 30
	}
	if c.MaxChunkBytes <= 0 {
		c.MaxChunkBytes = 16 << 20
	}
}

// minChunkBytes guarantees chunk 0 covers the DMGB header, so the
// short-circuit decision never waits on a second chunk.
const minChunkBytes = 1024

// errAborted closes the decode pipe of a session that ended before its
// stream did (short-circuit, expiry, abort).
var errAborted = errors.New("ingest: session ended")

// Manager owns the upload sessions and their TTL sweeper.
type Manager struct {
	cfg      Config
	mu       sync.Mutex
	sessions map[string]*session
	nextID   atomic.Int64
	quit     chan struct{}
	stopOnce sync.Once
	sweeper  sync.WaitGroup

	expired      *obs.Counter
	failed       *obs.Counter
	shortCircs   *obs.Counter
	bytesIn      *obs.Counter
	replayed     *obs.Counter
	checksumErrs *obs.Counter
	openGauge    *obs.Gauge
}

// NewManager builds a manager and starts its sweeper; Stop it on shutdown.
func NewManager(cfg Config) *Manager {
	cfg.fillDefaults()
	if cfg.Store == nil {
		panic("ingest: Config.Store is required")
	}
	reg := cfg.Registry
	m := &Manager{
		cfg:          cfg,
		sessions:     make(map[string]*session),
		quit:         make(chan struct{}),
		expired:      reg.Counter("ingest.sessions_expired"),
		failed:       reg.Counter("ingest.sessions_failed"),
		shortCircs:   reg.Counter("ingest.short_circuits"),
		bytesIn:      reg.Counter("ingest.bytes_in"),
		replayed:     reg.Counter("ingest.chunks_replayed"),
		checksumErrs: reg.Counter("ingest.chunk_checksum_errors"),
		openGauge:    reg.Gauge("ingest.sessions_open"),
	}
	m.sweeper.Add(1)
	go m.sweepLoop()
	return m
}

// Stop halts the sweeper and fails every open session. Safe to call twice.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.quit) })
	m.sweeper.Wait()
	m.mu.Lock()
	open := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.sessions = make(map[string]*session)
	m.mu.Unlock()
	for _, s := range open {
		s.end(StateFailed, "server shutting down")
	}
	m.openGauge.Set(0)
}

func (m *Manager) sweepLoop() {
	defer m.sweeper.Done()
	tick := time.NewTicker(m.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
			m.sweep(time.Now())
		}
	}
}

// sweep expires idle sessions: mid-upload ones fail (the client finds a
// gone session and reopens), finished ones are silently forgotten.
func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	var gone []*session
	for id, s := range m.sessions {
		if now.After(s.deadline()) {
			delete(m.sessions, id)
			gone = append(gone, s)
		}
	}
	m.openGauge.Set(int64(len(m.sessions)))
	m.mu.Unlock()
	for _, s := range gone {
		if s.end(StateFailed, "session expired") {
			m.expired.Inc()
		}
	}
}

// chunkMeta records a received chunk for idempotent replays and resume.
type chunkMeta struct {
	size int64
	sum  [sha256.Size]byte
}

// decodeResult carries the streaming decoder's outcome.
type decodeResult struct {
	g   *graph.Graph
	fp  string
	err error
}

// session is one upload in flight. The mutex guards every field; the
// feeder goroutine moves contiguous chunks to the decode pipe so HTTP
// handlers never block on the decoder.
type session struct {
	id         string
	chunkBytes int64
	maxBytes   int64
	ttl        time.Duration

	mu         sync.Mutex
	cond       *sync.Cond
	state      string
	failure    string
	lastActive time.Time
	chunks     map[int]chunkMeta // every received chunk
	pending    map[int][]byte    // received, not yet fed to the decoder
	next       int               // next chunk index the feeder wants
	bytesIn    int64
	shortIdx   int // index of the (provisionally last) short chunk, -1 if none
	finalized  bool
	total      int // declared chunk count, -1 until complete
	prefix     []byte
	sniffed    bool
	fp         string // declared (DMGB header), then verified on completion
	ref        string // graph_ref once complete / short-circuited

	pw        *io.PipeWriter
	decoded   *decodeResult
	decodedCh chan struct{} // closed once decoded is set

	// release is the admission hook from Config.Admit; relOnce guarantees
	// it runs at most once, however many paths observe the terminal state.
	release func()
	relOnce sync.Once
}

func (s *session) deadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive.Add(s.ttl)
}

// end moves the session to a terminal state (unless already terminal),
// wakes the feeder, and tears down the decode pipe. Reports whether the
// session was still uploading.
func (s *session) end(state, why string) bool {
	s.mu.Lock()
	wasUploading := s.state == StateUploading
	if wasUploading {
		s.state = state
		s.failure = why
		s.pending = nil
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if wasUploading {
		s.pw.CloseWithError(errAborted)
	}
	s.settle()
	return wasUploading
}

// setRelease attaches the admission release hook. If the session already
// ended — possible the instant after Open — the hook runs immediately.
func (s *session) setRelease(rel func()) {
	s.mu.Lock()
	s.release = rel
	terminal := s.state != StateUploading
	s.mu.Unlock()
	if terminal {
		s.relOnce.Do(rel)
	}
}

// settle runs the admission release hook if the session has left the
// uploading state. Idempotent and safe from any goroutine; every terminal
// transition calls it after dropping the session lock.
func (s *session) settle() {
	s.mu.Lock()
	terminal := s.state != StateUploading
	rel := s.release
	s.mu.Unlock()
	if terminal && rel != nil {
		s.relOnce.Do(rel)
	}
}

// Open creates a session. chunkBytes 0 selects the 4 MiB default.
func (m *Manager) Open(chunkBytes int64) (*session, error) {
	if chunkBytes == 0 {
		chunkBytes = 4 << 20
	}
	if chunkBytes < minChunkBytes || chunkBytes > m.cfg.MaxChunkBytes {
		return nil, fmt.Errorf("chunk_bytes %d outside [%d, %d]", chunkBytes, minChunkBytes, m.cfg.MaxChunkBytes)
	}
	m.mu.Lock()
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, errTooManySessions
	}
	id := fmt.Sprintf("up-%d", m.nextID.Add(1))
	pr, pw := io.Pipe()
	s := &session{
		id:         id,
		chunkBytes: chunkBytes,
		maxBytes:   m.cfg.MaxBytes,
		ttl:        m.cfg.TTL,
		state:      StateUploading,
		lastActive: time.Now(),
		chunks:     make(map[int]chunkMeta),
		pending:    make(map[int][]byte),
		shortIdx:   -1,
		total:      -1,
		pw:         pw,
		decodedCh:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	m.sessions[id] = s
	m.openGauge.Set(int64(len(m.sessions)))
	m.mu.Unlock()

	go s.feedLoop()
	go s.decodeLoop(pr)
	return s, nil
}

var errTooManySessions = errors.New("too many open upload sessions")

// lookup finds a live session.
func (m *Manager) lookup(id string) (*session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// feedLoop moves contiguous pending chunks into the decode pipe, in index
// order, without holding the session lock across pipe writes. It exits when
// the session leaves the uploading state or every declared chunk is fed.
func (s *session) feedLoop() {
	for {
		s.mu.Lock()
		for s.state == StateUploading && s.pending[s.next] == nil &&
			!(s.finalized && s.next >= s.total) {
			s.cond.Wait()
		}
		if s.state != StateUploading {
			s.mu.Unlock()
			return // end() closed the pipe
		}
		if buf := s.pending[s.next]; buf != nil {
			delete(s.pending, s.next)
			s.next++
			s.mu.Unlock()
			if _, err := s.pw.Write(buf); err != nil {
				// The decoder stopped reading (done, or failed): nothing
				// more to feed; completion reads the decode result.
				return
			}
			continue
		}
		// Finalized and fully fed: EOF tells a text decoder to finish.
		s.mu.Unlock()
		s.pw.Close()
		return
	}
}

// decodeLoop runs the streaming decoder against the fed prefix, computes
// the fingerprint, and publishes the result.
func (s *session) decodeLoop(pr *io.PipeReader) {
	g, err := graph.ReadAuto(pr)
	// Unblock any in-flight feeder write; harmless if the pipe is done.
	pr.CloseWithError(errAborted) //nolint:errcheck // pipe close cannot fail
	res := &decodeResult{g: g, err: err}
	if err == nil {
		res.fp = graph.Fingerprint(g)
	}
	s.mu.Lock()
	s.decoded = res
	if err != nil && s.state == StateUploading && s.finalized {
		// The stream was fully delivered and still did not decode.
		s.state = StateFailed
		s.failure = err.Error()
		s.pending = nil
	}
	s.mu.Unlock()
	s.settle()
	close(s.decodedCh)
}

// Append records one chunk. Replays of an identical chunk are idempotent;
// conflicting replays and shape violations are rejected with a *Refusal.
// The returned status reflects the session after the append — a client that
// sees a terminal state stops sending.
func (m *Manager) Append(s *session, idx int, data []byte, declaredSum string) (*Status, error) {
	if idx < 0 {
		return nil, Refusef(http.StatusBadRequest, "negative chunk index %d", idx)
	}
	if int64(len(data)) > s.chunkBytes {
		return nil, Refusef(http.StatusBadRequest, "chunk %d carries %d bytes, session chunk_bytes is %d", idx, len(data), s.chunkBytes)
	}
	if len(data) == 0 {
		return nil, Refusef(http.StatusBadRequest, "chunk %d is empty", idx)
	}
	sum := sha256.Sum256(data)
	if declaredSum != "" && declaredSum != hex.EncodeToString(sum[:]) {
		m.checksumErrs.Inc()
		return nil, Refusef(http.StatusBadRequest, "chunk %d checksum mismatch: body hashes to %s", idx, hex.EncodeToString(sum[:]))
	}
	m.bytesIn.Add(int64(len(data)))

	s.mu.Lock()
	s.lastActive = time.Now()
	switch s.state {
	case StateComplete, StateShortCircuit:
		// The transfer is already settled; tell the client to stop.
		st := s.statusLocked()
		s.mu.Unlock()
		return st, nil
	case StateFailed:
		msg := s.failure
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "session failed: %s", msg)
	}
	if prev, ok := s.chunks[idx]; ok {
		if prev.sum == sum {
			m.replayed.Inc()
			st := s.statusLocked()
			s.mu.Unlock()
			return st, nil
		}
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "chunk %d replayed with different content", idx)
	}
	short := int64(len(data)) < s.chunkBytes
	if short {
		if s.shortIdx >= 0 {
			s.mu.Unlock()
			return nil, Refusef(http.StatusConflict, "chunks %d and %d are both short; only the final chunk may be", s.shortIdx, idx)
		}
		for other := range s.chunks {
			if other > idx {
				s.mu.Unlock()
				return nil, Refusef(http.StatusConflict, "short chunk %d below existing chunk %d; only the final chunk may be short", idx, other)
			}
		}
		s.shortIdx = idx
	} else if s.shortIdx >= 0 && idx > s.shortIdx {
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "chunk %d beyond short chunk %d; only the final chunk may be short", idx, s.shortIdx)
	}
	if s.bytesIn+int64(len(data)) > s.maxBytes {
		s.mu.Unlock()
		return nil, Refusef(http.StatusRequestEntityTooLarge, "session exceeds the %d-byte upload bound", s.maxBytes)
	}
	s.chunks[idx] = chunkMeta{size: int64(len(data)), sum: sum}
	s.bytesIn += int64(len(data))
	owned := append([]byte(nil), data...)
	s.pending[idx] = owned
	// Grow the sniffing prefix while the header may still be incomplete.
	if off := int64(idx) * s.chunkBytes; !s.sniffed && off < graph.DMGBHeaderSize {
		s.growPrefixLocked()
	}
	s.cond.Broadcast()
	sc := !s.sniffed && len(s.prefix) >= graph.DMGBHeaderSize
	s.mu.Unlock()

	if sc {
		m.maybeShortCircuit(s)
	}

	s.mu.Lock()
	st := s.statusLocked()
	s.mu.Unlock()
	return st, nil
}

// growPrefixLocked assembles the contiguous byte prefix (up to the DMGB
// header size) from whichever leading chunks have arrived.
func (s *session) growPrefixLocked() {
	for {
		idx := int(int64(len(s.prefix)) / s.chunkBytes)
		buf, ok := s.pending[idx]
		if !ok || len(s.prefix) >= graph.DMGBHeaderSize {
			return
		}
		skip := int64(len(s.prefix)) - int64(idx)*s.chunkBytes
		if skip < 0 || skip >= int64(len(buf)) {
			return
		}
		need := graph.DMGBHeaderSize - len(s.prefix)
		rest := buf[skip:]
		if len(rest) > need {
			rest = rest[:need]
		}
		s.prefix = append(s.prefix, rest...)
	}
}

// maybeShortCircuit parses the declared DMGB header once the prefix covers
// it; a fingerprint the store already holds settles the session without
// the rest of the transfer.
func (m *Manager) maybeShortCircuit(s *session) {
	s.mu.Lock()
	if s.sniffed || len(s.prefix) < graph.DMGBHeaderSize || s.state != StateUploading {
		s.mu.Unlock()
		return
	}
	s.sniffed = true
	if !graph.IsDMGB(s.prefix) {
		s.mu.Unlock()
		return // text: fingerprint only known after decode
	}
	hdr, err := graph.ParseDMGBHeader(s.prefix)
	if err != nil {
		s.mu.Unlock()
		// A malformed header fails in the decoder with a precise error.
		return
	}
	s.fp = hdr.Fingerprint
	fp := s.fp
	s.mu.Unlock()

	if !m.cfg.Store.Contains(fp) {
		return
	}
	s.mu.Lock()
	if s.state != StateUploading {
		s.mu.Unlock()
		return
	}
	s.state = StateShortCircuit
	s.ref = fp
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.pw.CloseWithError(errAborted)
	s.settle()
	m.shortCircs.Inc()
}

// Complete finalizes the upload: it validates that every one of the
// declared chunks arrived, waits for the streaming decoder to finish the
// tail, deposits the graph in the store, and returns the settled status.
// cancel aborts the wait (the caller's request context).
func (m *Manager) Complete(s *session, totalChunks int, cancel <-chan struct{}) (*Status, error) {
	s.mu.Lock()
	s.lastActive = time.Now()
	switch s.state {
	case StateComplete, StateShortCircuit:
		st := s.statusLocked()
		s.mu.Unlock()
		return st, nil
	case StateFailed:
		msg := s.failure
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "session failed: %s", msg)
	}
	if totalChunks <= 0 {
		s.mu.Unlock()
		return nil, Refusef(http.StatusBadRequest, "chunks must be positive, got %d", totalChunks)
	}
	var missing []int
	for i := 0; i < totalChunks; i++ {
		if _, ok := s.chunks[i]; !ok {
			missing = append(missing, i)
			if len(missing) >= 8 {
				break
			}
		}
	}
	if len(missing) > 0 {
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "cannot complete: %d chunks received of %d declared; first missing %v", len(s.chunks), totalChunks, missing)
	}
	if len(s.chunks) > totalChunks {
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "%d chunks received exceed the %d declared", len(s.chunks), totalChunks)
	}
	if s.shortIdx >= 0 && s.shortIdx != totalChunks-1 {
		s.mu.Unlock()
		return nil, Refusef(http.StatusConflict, "short chunk %d is not the final chunk %d", s.shortIdx, totalChunks-1)
	}
	s.finalized = true
	s.total = totalChunks
	s.cond.Broadcast()
	s.mu.Unlock()

	select {
	case <-s.decodedCh:
	case <-cancel:
		return nil, Refusef(http.StatusGatewayTimeout, "request cancelled while decoding")
	}

	s.mu.Lock()
	// Deferred LIFO: unlock first, then settle (settle retakes the lock).
	defer s.settle()
	defer s.mu.Unlock()
	s.lastActive = time.Now()
	if s.state == StateShortCircuit {
		return s.statusLocked(), nil
	}
	res := s.decoded
	if res.err != nil {
		if s.state == StateUploading {
			s.state = StateFailed
			s.failure = res.err.Error()
			s.pending = nil
		}
		m.failed.Inc()
		return nil, Refusef(http.StatusUnprocessableEntity, "decoding upload: %v", res.err)
	}
	if s.state != StateUploading {
		return nil, Refusef(http.StatusConflict, "session failed: %s", s.failure)
	}
	m.cfg.Store.Put(res.fp, res.g)
	s.state = StateComplete
	s.fp = res.fp
	s.ref = res.fp
	s.pending = nil
	return s.statusLocked(), nil
}

// Abort discards a session.
func (m *Manager) Abort(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.openGauge.Set(int64(len(m.sessions)))
	}
	m.mu.Unlock()
	if !ok {
		return false
	}
	s.end(StateFailed, "aborted by client")
	return true
}

// Status is the session state a client sees — the body of every chunk,
// status, and completion answer.
type Status struct {
	UploadID   string `json:"upload_id"`
	State      string `json:"state"`
	ChunkBytes int64  `json:"chunk_bytes"`
	// ReceivedChunks and ReceivedBytes count unique chunks (replays
	// excluded).
	ReceivedChunks int   `json:"received_chunks"`
	ReceivedBytes  int64 `json:"received_bytes"`
	// ReceivedRanges lists the received chunk indexes as [start, end)
	// ranges — what a resuming client diffs against its plan.
	ReceivedRanges [][2]int `json:"received_ranges,omitempty"`
	// NextMissing is the lowest chunk index not yet received.
	NextMissing int `json:"next_missing"`
	// Fingerprint is the graph fingerprint as soon as it is known: from
	// the DMGB header once chunk 0 lands, or after decoding otherwise.
	Fingerprint string `json:"fingerprint,omitempty"`
	// GraphRef is the content address jobs can reference, set once the
	// session completes or short-circuits.
	GraphRef string `json:"graph_ref,omitempty"`
	// Error describes a failed session.
	Error string `json:"error,omitempty"`
	// ExpiresUnixMillis is when the session lapses if left idle.
	ExpiresUnixMillis int64 `json:"expires_unix_ms"`
}

// Status reports the session's current status.
func (m *Manager) Status(s *session) *Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *session) statusLocked() *Status {
	st := &Status{
		UploadID:          s.id,
		State:             s.state,
		ChunkBytes:        s.chunkBytes,
		ReceivedChunks:    len(s.chunks),
		ReceivedBytes:     s.bytesIn,
		Fingerprint:       s.fp,
		GraphRef:          s.ref,
		Error:             s.failure,
		ExpiresUnixMillis: s.lastActive.Add(s.ttl).UnixMilli(),
	}
	if s.state == StateUploading {
		idxs := make([]int, 0, len(s.chunks))
		for i := range s.chunks {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			if n := len(st.ReceivedRanges); n > 0 && st.ReceivedRanges[n-1][1] == i {
				st.ReceivedRanges[n-1][1] = i + 1
				continue
			}
			st.ReceivedRanges = append(st.ReceivedRanges, [2]int{i, i + 1})
		}
		for _, r := range st.ReceivedRanges {
			if r[0] == st.NextMissing {
				st.NextMissing = r[1]
			}
		}
	}
	return st
}

// Refusal is a non-200 answer of the daemon's HTTP surface — to a job
// submission, an upload call or an upload admission, whichever stage decided
// it — and Write is the one writer of the {"error": ...} body and the
// Retry-After header (docs/PROTOCOL.md §6). It lives in this package because
// service imports ingest, not the other way round.
type Refusal struct {
	Status     int
	RetryAfter int // seconds; 0 sends no Retry-After header
	Msg        string
}

func (e *Refusal) Error() string { return e.Msg }

// Refusef builds a refusal without a Retry-After hint.
func Refusef(status int, format string, args ...any) *Refusal {
	return &Refusal{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Write answers the request with the refusal.
func (e *Refusal) Write(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // response committed
		Error string `json:"error"`
	}{e.Msg})
}

// ---- HTTP surface -------------------------------------------------------

// openRequest is the body of POST /v1/uploads.
type openRequest struct {
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
}

// completeRequest is the body of POST /v1/uploads/{id}/complete.
type completeRequest struct {
	Chunks int `json:"chunks"`
}

// RegisterRoutes mounts the upload API (docs/PROTOCOL.md §7) on mux.
func (m *Manager) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/uploads", m.handleOpen)
	mux.HandleFunc("PUT /v1/uploads/{id}/chunks/{chunk}", m.handleChunk)
	mux.HandleFunc("GET /v1/uploads/{id}", m.handleStatus)
	mux.HandleFunc("POST /v1/uploads/{id}/complete", m.handleComplete)
	mux.HandleFunc("DELETE /v1/uploads/{id}", m.handleAbort)
}

func jsonStatus(w http.ResponseWriter, st *Status) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck // response committed
}

// answer writes the outcome of a session call: its status, a Refusal under
// its own code, or anything else as a 500.
func answer(w http.ResponseWriter, st *Status, err error) {
	var ref *Refusal
	switch {
	case err == nil:
		jsonStatus(w, st)
	case errors.As(err, &ref):
		ref.Write(w)
	default:
		Refusef(http.StatusInternalServerError, "%v", err).Write(w)
	}
}

func (m *Manager) handleOpen(w http.ResponseWriter, r *http.Request) {
	// Session opens join the caller's W3C trace like job submissions do
	// (docs/PROTOCOL.md §9): accept a valid traceparent or mint a trace id,
	// and echo it so an upload correlates with the jobs that follow it. The
	// header names mirror service.TraceparentHeader / service.TraceHeader
	// (service imports ingest, so the constants cannot live here).
	tid, _, ok := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	if !ok {
		tid = obs.NewTraceID()
	}
	w.Header().Set("X-DMGM-Trace", tid)
	var req openRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			Refusef(http.StatusBadRequest, "decoding open request: %v", err).Write(w)
			return
		}
	}
	var release func()
	if m.cfg.Admit != nil {
		rel, refusal := m.cfg.Admit(r)
		if refusal != nil {
			refusal.Write(w)
			return
		}
		release = rel
	}
	s, err := m.Open(req.ChunkBytes)
	if err != nil {
		if release != nil {
			release()
		}
		if errors.Is(err, errTooManySessions) {
			(&Refusal{Status: http.StatusTooManyRequests, RetryAfter: 1, Msg: fmt.Sprintf("%v: retry later", err)}).Write(w)
			return
		}
		Refusef(http.StatusBadRequest, "%v", err).Write(w)
		return
	}
	if release != nil {
		s.setRelease(release)
	}
	jsonStatus(w, m.Status(s))
}

// sessionFor resolves the {id} path segment; a miss is a 404 the client
// answers by reopening (expired sessions are deleted, not tombstoned).
func (m *Manager) sessionFor(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s, ok := m.lookup(id)
	if !ok {
		Refusef(http.StatusNotFound, "unknown upload session %q (expired or never opened); open a new session", id).Write(w)
		return nil, false
	}
	return s, true
}

func (m *Manager) handleChunk(w http.ResponseWriter, r *http.Request) {
	s, ok := m.sessionFor(w, r)
	if !ok {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("chunk"))
	if err != nil {
		Refusef(http.StatusBadRequest, "chunk index: %v", err).Write(w)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.chunkBytes+1))
	if err != nil {
		Refusef(http.StatusBadRequest, "reading chunk body: %v", err).Write(w)
		return
	}
	st, err := m.Append(s, idx, data, r.Header.Get("X-Chunk-SHA256"))
	answer(w, st, err)
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s, ok := m.sessionFor(w, r); ok {
		jsonStatus(w, m.Status(s))
	}
}

func (m *Manager) handleComplete(w http.ResponseWriter, r *http.Request) {
	s, ok := m.sessionFor(w, r)
	if !ok {
		return
	}
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		Refusef(http.StatusBadRequest, "decoding complete request: %v", err).Write(w)
		return
	}
	st, err := m.Complete(s, req.Chunks, r.Context().Done())
	answer(w, st, err)
}

func (m *Manager) handleAbort(w http.ResponseWriter, r *http.Request) {
	if !m.Abort(r.PathValue("id")) {
		Refusef(http.StatusNotFound, "unknown upload session %q", r.PathValue("id")).Write(w)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
