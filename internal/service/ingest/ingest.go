// Package ingest is the graph-ingest subsystem of the serving layer:
// resumable chunked uploads, with a content-addressed graph store underneath
// (docs/PROTOCOL.md §7).
//
// A client opens a session (POST /v1/uploads), sends the encoded graph as
// fixed-size chunks (PUT /v1/uploads/{id}/chunks/{n}) in any order, each
// idempotently replayable and checksum-guarded, and finalizes (POST
// .../complete). A session is plain data: it holds the chunks as they land,
// and the complete decodes them once, in index order, and fingerprints the
// graph. For DMGB streams, whose header carries the graph fingerprint, a
// session over content the daemon already holds short-circuits at chunk 0:
// the client learns the graph_ref immediately and aborts the remaining
// transfer.
//
// Jobs then reference the graph by fingerprint (`graph_ref`), decoupling the
// upload's lifetime from the jobs': one transfer, any number of runs.
package ingest

import (
	"bytes"
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
	// TTL expires sessions idle longer than this (default 2 minutes); the
	// sweeper scans every TTL/4.
	TTL time.Duration
	// MaxBytes bounds one session's received bytes (default 1 GiB).
	MaxBytes int64
	// Store receives decoded graphs; required. A DMGB session declaring a
	// fingerprint it contains short-circuits.
	Store *Store
	// Admit gates session opens — the serving layer charges uploads against
	// per-tenant budgets here (docs/PROTOCOL.md §8). Called before the
	// session exists, it returns either a release hook, which the manager
	// runs exactly once when the session leaves the uploading state (or
	// immediately, if opening fails), or the *Refusal to answer the open
	// with. The hook runs under the session's lock: it must be quick and
	// must not call into the Manager. nil admits every open.
	Admit func(r *http.Request) (release func(), err *Refusal)
	// Registry carries the ingest metrics; nil disables them.
	Registry *obs.Registry
}

const (
	// maxSessions bounds concurrently open sessions, settled ones included
	// until they expire or are aborted.
	maxSessions = 64
	// minChunkBytes guarantees chunk 0 covers the DMGB header, so the
	// short-circuit decision never waits on a second chunk.
	minChunkBytes = 1024
	// defaultChunkBytes and maxChunkBytes bound the declared chunk size.
	defaultChunkBytes = 4 << 20
	maxChunkBytes     = 16 << 20
)

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
	if cfg.TTL <= 0 {
		cfg.TTL = 2 * time.Minute
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 30
	}
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
	go m.sweepLoop(max(cfg.TTL/4, 10*time.Millisecond))
	return m
}

// Stop halts the sweeper and fails every open session. Safe to call twice.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.quit) })
	m.sweeper.Wait()
	m.mu.Lock()
	open := m.sessions
	m.sessions = make(map[string]*session)
	m.mu.Unlock()
	for _, s := range open {
		s.end("server shutting down")
	}
	m.openGauge.Set(0)
}

func (m *Manager) sweepLoop(every time.Duration) {
	defer m.sweeper.Done()
	tick := time.NewTicker(every)
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
		if s.end("session expired") {
			m.expired.Inc()
		}
	}
}

// chunk is one received chunk: its checksum, for idempotent replays, and
// its bytes until the session leaves the uploading state.
type chunk struct {
	sum  [sha256.Size]byte
	data []byte
}

// session is one upload: plain data under mu, and no goroutine of its own.
// It holds the chunks as they arrive; Complete decodes them. decode is a
// one-slot semaphore, so at most one Complete decodes a session at a time.
type session struct {
	id         string
	chunkBytes int64
	maxBytes   int64
	ttl        time.Duration
	release    func() // the admission hook; leaveLocked runs it
	decode     chan struct{}

	mu         sync.Mutex
	state      string
	failure    string
	lastActive time.Time
	chunks     map[int]chunk
	bytesIn    int64
	shortIdx   int    // index of the (provisionally last) short chunk, -1 if none
	fp         string // declared (DMGB header), then verified on completion
	ref        string // graph_ref once complete / short-circuited
}

func (s *session) deadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive.Add(s.ttl)
}

// leaveLocked is the one transition out of the uploading state: it settles
// the session, drops the chunk bytes and runs the admission release hook.
// The caller holds mu and has seen the session uploading.
func (s *session) leaveLocked(state, why string) {
	s.state, s.failure = state, why
	for i, c := range s.chunks {
		s.chunks[i] = chunk{sum: c.sum}
	}
	s.release()
}

// end fails the session unless it has already settled, and reports whether
// it was still uploading.
func (s *session) end(why string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateUploading {
		return false
	}
	s.leaveLocked(StateFailed, why)
	return true
}

// Open creates a session; chunkBytes 0 selects the 4 MiB default. Open owns
// release (nil for none): it runs once, when the session leaves the
// uploading state, or at once if Open refuses.
func (m *Manager) Open(chunkBytes int64, release func()) (*session, error) {
	if release == nil {
		release = func() {}
	}
	if chunkBytes == 0 {
		chunkBytes = defaultChunkBytes
	}
	if chunkBytes < minChunkBytes || chunkBytes > maxChunkBytes {
		release()
		return nil, fmt.Errorf("chunk_bytes %d outside [%d, %d]", chunkBytes, minChunkBytes, maxChunkBytes)
	}
	m.mu.Lock()
	if len(m.sessions) >= maxSessions {
		m.mu.Unlock()
		release()
		return nil, errTooManySessions
	}
	s := &session{
		id:         fmt.Sprintf("up-%d", m.nextID.Add(1)),
		chunkBytes: chunkBytes,
		maxBytes:   m.cfg.MaxBytes,
		ttl:        m.cfg.TTL,
		release:    release,
		decode:     make(chan struct{}, 1),
		state:      StateUploading,
		lastActive: time.Now(),
		chunks:     make(map[int]chunk),
		shortIdx:   -1,
	}
	m.sessions[s.id] = s
	m.openGauge.Set(int64(len(m.sessions)))
	m.mu.Unlock()
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
	defer s.mu.Unlock()
	s.lastActive = time.Now()
	switch s.state {
	case StateComplete, StateShortCircuit:
		// The transfer is already settled; tell the client to stop.
		return s.statusLocked(), nil
	case StateFailed:
		return nil, Refusef(http.StatusConflict, "session failed: %s", s.failure)
	}
	if prev, ok := s.chunks[idx]; ok {
		if prev.sum != sum {
			return nil, Refusef(http.StatusConflict, "chunk %d replayed with different content", idx)
		}
		m.replayed.Inc()
		return s.statusLocked(), nil
	}
	if int64(len(data)) < s.chunkBytes {
		if s.shortIdx >= 0 {
			return nil, Refusef(http.StatusConflict, "chunks %d and %d are both short; only the final chunk may be", s.shortIdx, idx)
		}
		for other := range s.chunks {
			if other > idx {
				return nil, Refusef(http.StatusConflict, "short chunk %d below existing chunk %d; only the final chunk may be short", idx, other)
			}
		}
	} else if s.shortIdx >= 0 && idx > s.shortIdx {
		return nil, Refusef(http.StatusConflict, "chunk %d beyond short chunk %d; only the final chunk may be short", idx, s.shortIdx)
	}
	if s.bytesIn+int64(len(data)) > s.maxBytes {
		return nil, Refusef(http.StatusRequestEntityTooLarge, "session exceeds the %d-byte upload bound", s.maxBytes)
	}
	if int64(len(data)) < s.chunkBytes {
		s.shortIdx = idx
	}
	s.chunks[idx] = chunk{sum: sum, data: append([]byte(nil), data...)}
	s.bytesIn += int64(len(data))
	if idx == 0 {
		m.sniffLocked(s, data)
	}
	return s.statusLocked(), nil
}

// sniffLocked reads the DMGB header off chunk 0, which minChunkBytes makes
// long enough to hold it unless chunk 0 is the whole upload. A declared
// fingerprint the store already holds settles the session without the rest
// of the transfer. Text, and a malformed header, wait for Complete, whose
// decoder says precisely what is wrong.
func (m *Manager) sniffLocked(s *session, chunk0 []byte) {
	hdr, err := graph.ParseDMGBHeader(chunk0)
	if err != nil {
		return
	}
	s.fp = hdr.Fingerprint
	if m.cfg.Store.Contains(s.fp) {
		s.ref = s.fp
		s.leaveLocked(StateShortCircuit, "")
		m.shortCircs.Inc()
	}
}

// Complete finalizes the upload: it checks that exactly the declared chunks
// arrived, decodes them once, in index order, deposits the graph in the
// store, and returns the settled status. A closed cancel (the caller's
// request context) stops the decode with a 504 and leaves the session
// uploading, for a later complete to finish.
func (m *Manager) Complete(s *session, totalChunks int, cancel <-chan struct{}) (*Status, error) {
	// Take the decode slot, waiting (or giving up on cancel) only while
	// another complete holds it.
	select {
	case s.decode <- struct{}{}:
	default:
		select {
		case s.decode <- struct{}{}:
		case <-cancel:
			return nil, errCancelled
		}
	}
	defer func() { <-s.decode }()
	s.mu.Lock()
	parts, st, err := s.partsLocked(totalChunks)
	s.mu.Unlock()
	if parts == nil {
		return st, err
	}
	readers := make([]io.Reader, len(parts))
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
	}
	r := &cancelReader{r: io.MultiReader(readers...), cancel: cancel}
	g, fp, err := decodeParts(parts[0], r)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastActive = time.Now()
	switch {
	case r.cancelled:
		return nil, errCancelled
	case s.state != StateUploading:
		// Aborted or expired while decoding.
		return nil, Refusef(http.StatusConflict, "session failed: %s", s.failure)
	case err != nil:
		s.leaveLocked(StateFailed, err.Error())
		m.failed.Inc()
		return nil, Refusef(http.StatusUnprocessableEntity, "decoding upload: %v", err)
	}
	m.cfg.Store.Put(fp, g)
	s.fp, s.ref = fp, fp
	s.leaveLocked(StateComplete, "")
	return s.statusLocked(), nil
}

var errCancelled = Refusef(http.StatusGatewayTimeout, "request cancelled while decoding")

// partsLocked checks a complete of totalChunks chunks against what arrived
// and returns the chunk bytes in index order. A settled session answers
// with its status, or its failure, and no parts.
func (s *session) partsLocked(totalChunks int) ([][]byte, *Status, error) {
	s.lastActive = time.Now()
	switch s.state {
	case StateComplete, StateShortCircuit:
		return nil, s.statusLocked(), nil
	case StateFailed:
		return nil, nil, Refusef(http.StatusConflict, "session failed: %s", s.failure)
	}
	if totalChunks <= 0 {
		return nil, nil, Refusef(http.StatusBadRequest, "chunks must be positive, got %d", totalChunks)
	}
	var missing []int
	for i := 0; i < totalChunks && len(missing) < 8; i++ {
		if _, ok := s.chunks[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		return nil, nil, Refusef(http.StatusConflict, "cannot complete: %d chunks received of %d declared; first missing %v", len(s.chunks), totalChunks, missing)
	}
	if len(s.chunks) > totalChunks {
		return nil, nil, Refusef(http.StatusConflict, "%d chunks received exceed the %d declared", len(s.chunks), totalChunks)
	}
	if s.shortIdx >= 0 && s.shortIdx != totalChunks-1 {
		return nil, nil, Refusef(http.StatusConflict, "short chunk %d is not the final chunk %d", s.shortIdx, totalChunks-1)
	}
	parts := make([][]byte, totalChunks)
	for i := range parts {
		parts[i] = s.chunks[i].data
	}
	return parts, nil, nil
}

// decodeParts decodes a whole upload. A DMGB stream keeps the fingerprint
// its decoder has verified against the content; text is fingerprinted after
// it parses.
func decodeParts(chunk0 []byte, r io.Reader) (*graph.Graph, string, error) {
	if graph.IsDMGB(chunk0) {
		g, hdr, err := graph.ReadDMGBWithHeader(r)
		if err != nil {
			return nil, "", err
		}
		return g, hdr.Fingerprint, nil
	}
	g, err := graph.ReadText(r)
	if err != nil {
		return nil, "", err
	}
	return g, graph.Fingerprint(g), nil
}

// cancelReader fails its reads once cancel is closed, so a complete whose
// request went away stops decoding.
type cancelReader struct {
	r         io.Reader
	cancel    <-chan struct{}
	cancelled bool
}

func (c *cancelReader) Read(p []byte) (int, error) {
	select {
	case <-c.cancel:
		c.cancelled = true
		return 0, errCancelled
	default:
		return c.r.Read(p)
	}
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
	if ok {
		s.end("aborted by client")
	}
	return ok
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
		if r := st.ReceivedRanges; len(r) > 0 && r[0][0] == 0 {
			st.NextMissing = r[0][1]
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
		var refusal *Refusal
		if release, refusal = m.cfg.Admit(r); refusal != nil {
			refusal.Write(w)
			return
		}
	}
	s, err := m.Open(req.ChunkBytes, release)
	if err != nil {
		if errors.Is(err, errTooManySessions) {
			(&Refusal{Status: http.StatusTooManyRequests, RetryAfter: 1, Msg: fmt.Sprintf("%v: retry later", err)}).Write(w)
			return
		}
		Refusef(http.StatusBadRequest, "%v", err).Write(w)
		return
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
