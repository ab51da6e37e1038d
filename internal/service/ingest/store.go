package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/lru"
	"repro/internal/obs"
)

// GraphBytes estimates the resident size of a decoded graph — the unit the
// store's byte budget is accounted in.
func GraphBytes(g *graph.Graph) int64 {
	return int64(len(g.Xadj))*8 + int64(len(g.Adj))*4 + int64(len(g.W))*8
}

// Store is the bounded content-addressed graph store: decoded graphs keyed
// by their fingerprint, evicted LRU by resident bytes. It is what decouples
// upload lifetime from job lifetime — an upload session deposits the decoded
// graph here and hands the client a `graph_ref` (the fingerprint); any number
// of later jobs resolve the ref without the bytes ever travelling again.
//
// Graphs are immutable once built, so eviction is safe under concurrent job
// references: a job that resolved its ref keeps its pointer and runs to
// completion even if the entry is evicted mid-run (asserted under -race by
// the store tests).
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	lru      *lru.Cache[string, *graph.Graph] // by fingerprint, cost = GraphBytes
	flight   map[string]*flightCall           // in-progress loads, by caller key
	// texts names stored graphs by the inline text that reached them, so a
	// repeated text is parsed once. An entry exists only while its
	// fingerprint is in memory: the LRU's on-evict callback (forget) drops it
	// with the graph. texts holds at most one digest per fingerprint (the
	// newest), so it never outgrows the store's entry count.
	texts  map[string]string // inline text SHA-256 → fingerprint
	textOf map[string]string // fingerprint → its entry in texts

	// spill is the persistent tier (spill.go); nil means memory-only, the
	// pre-persistence behavior. reg is kept so EnableSpill can register its
	// instruments.
	spill *spillTier
	reg   *obs.Registry

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entriesG  *obs.Gauge
}

// flightCall is one in-progress load other callers can wait on.
type flightCall struct {
	done chan struct{}
	g    *graph.Graph
	fp   string
	err  error
}

// NewStore builds a store holding up to maxBytes of decoded graphs
// (clamped to at least 1 MiB). reg may carry a nil registry; every
// instrument is then a no-op.
func NewStore(maxBytes int64, reg *obs.Registry) *Store {
	if maxBytes < 1<<20 {
		maxBytes = 1 << 20
	}
	s := &Store{
		maxBytes:  maxBytes,
		flight:    make(map[string]*flightCall),
		texts:     make(map[string]string),
		textOf:    make(map[string]string),
		reg:       reg,
		hits:      reg.Counter("ingest.store_hits"),
		misses:    reg.Counter("ingest.store_misses"),
		evictions: reg.Counter("ingest.store_evictions"),
		entriesG:  reg.Gauge("ingest.store_entries"),
	}
	s.lru = lru.New(maxBytes, s.forget)
	return s
}

// forget is the LRU's on-evict callback (run under s.mu): the text that led
// to an evicted graph goes with it.
func (s *Store) forget(fp string, _ *graph.Graph) {
	if d, ok := s.textOf[fp]; ok {
		delete(s.texts, d)
		delete(s.textOf, fp)
	}
}

// Get returns the graph stored under the fingerprint, marking it recently
// used.
func (s *Store) Get(fp string) (*graph.Graph, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.lru.Get(fp)
	if ok {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	return g, ok
}

// Contains reports presence without touching LRU order or the hit counters —
// the probe an upload session uses to decide a short-circuit, and the only
// one: a session settles without the bytes only if a graph_ref job can then
// find the graph. A graph that has been evicted from memory but still has
// its spill file counts as present: the next job rehydrates it, so
// re-uploading the bytes would be wasted work.
func (s *Store) Contains(fp string) bool {
	s.mu.Lock()
	ok := s.lru.Contains(fp)
	s.mu.Unlock()
	if ok {
		return true
	}
	return s.spill != nil && s.spill.contains(fp)
}

// Put stores a graph under its fingerprint, evicting least recently used
// entries beyond the byte budget. The newest entry always stays, so one
// oversized graph is held rather than thrashed. With a spill tier enabled
// the canonical encoding is also written to disk (outside the store lock;
// content-addressed names make concurrent duplicate writes harmless), so
// the ref survives both memory eviction and a daemon restart.
func (s *Store) Put(fp string, g *graph.Graph) {
	s.mu.Lock()
	// Content-addressed: an existing entry is the same graph, so it is only
	// marked recently used.
	if _, ok := s.lru.Get(fp); !ok {
		_, evicted := s.lru.Put(fp, g, GraphBytes(g))
		s.evictions.Add(int64(evicted))
		s.entriesG.Set(int64(s.lru.Len()))
	}
	s.mu.Unlock()
	// Even for an existing entry, make sure the spill file exists — it may
	// have been evicted by the disk budget or quarantined since the first
	// deposit.
	if s.spill != nil {
		s.spill.write(fp, g)
	}
}

// Resolve returns the graph for a fingerprint, rehydrating it from the
// spill tier when it is on disk but not in memory. The second result
// reports whether a disk read happened — the service uses it to emit a
// rehydrate span. Concurrent resolves of the same evicted ref share one
// decode through the single-flight path, and a corrupt spill file is
// quarantined by the loader so the miss is not sticky: the next Resolve is
// a plain miss and the client re-uploads.
func (s *Store) Resolve(fp string) (g *graph.Graph, rehydrated bool, ok bool) {
	if g, ok := s.Get(fp); ok {
		return g, false, true
	}
	if s.spill == nil || !s.spill.contains(fp) {
		return nil, false, false
	}
	g, _, err := s.loadShared("spill:"+fp, false, func() (*graph.Graph, string, bool) {
		g, ok := s.lru.Get(fp)
		return g, fp, ok
	}, func() (*graph.Graph, string, error) {
		g, err := s.spill.load(fp)
		if err != nil {
			return nil, "", err
		}
		return g, fp, nil
	}, nil)
	if err != nil {
		// The spill file was corrupt or vanished; load() already quarantined
		// and dropped the index entry, so this ref now reads as absent.
		return nil, false, false
	}
	return g, true, true
}

// LoadText resolves an inline graph text through the store: a text whose
// SHA-256 names a stored graph is answered with that graph, unparsed — graph.ReadText is a pure function of its bytes, and the
// fingerprint pins the graph down to its CSR arrays. Otherwise the text is
// parsed and fingerprinted once across concurrent callers and deposited, and
// its digest replaces any earlier text of the same graph. A text that fails
// to parse is never remembered: every caller gets ReadText's own error.
func (s *Store) LoadText(text string) (*graph.Graph, string, error) {
	d := textDigest(text)
	hit := false
	g, fp, err := s.loadShared("text:"+d, true, func() (*graph.Graph, string, bool) {
		fp, ok := s.texts[d]
		if !ok {
			return nil, "", false
		}
		g, ok := s.lru.Get(fp)
		if ok {
			s.hits.Inc()
			hit = true
		}
		return g, fp, ok
	}, func() (*graph.Graph, string, error) {
		g, err := graph.ReadText(strings.NewReader(text))
		if err != nil {
			return nil, "", err
		}
		return g, graph.Fingerprint(g), nil
	}, func(fp string) {
		if old, ok := s.textOf[fp]; ok {
			delete(s.texts, old)
		}
		s.texts[d], s.textOf[fp] = fp, d
	})
	// A hit touches the spill file as a deposit would: it may have been
	// evicted by the disk budget or quarantined since.
	if hit && s.spill != nil {
		s.spill.write(fp, g)
	}
	return g, fp, err
}

// textDigest is the hex SHA-256 of text, fed through a fixed buffer so the
// text is never copied whole.
func textDigest(text string) string {
	h := sha256.New()
	var buf [4 << 10]byte
	for len(text) > 0 {
		n := copy(buf[:], text)
		h.Write(buf[:n])
		text = text[n:]
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// loadShared returns the graph cached finds in the store, or else runs load
// once per key across concurrent callers and deposits its graph. cached runs
// under the store lock together with the flight lookup, and the deposit
// happens before the flight entry is removed, so a caller always sees either
// the flight or the stored graph — never neither, which would decode the same
// bytes a second time. After a successful load, remember (if not nil) records
// how the caller named the graph; it runs under the store lock and only while
// the graph is still in memory, so no name outlives its graph. countMiss
// governs whether starting a load counts as a store miss; Resolve passes false
// because its preceding Get already counted one.
func (s *Store) loadShared(key string, countMiss bool, cached func() (*graph.Graph, string, bool),
	load func() (*graph.Graph, string, error), remember func(fp string)) (*graph.Graph, string, error) {
	s.mu.Lock()
	if g, fp, ok := cached(); ok {
		s.mu.Unlock()
		return g, fp, nil
	}
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.g, c.fp, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	if countMiss {
		s.misses.Inc()
	}
	s.mu.Unlock()

	if c.g, c.fp, c.err = load(); c.err == nil {
		s.Put(c.fp, c.g)
	}
	s.mu.Lock()
	if c.err == nil && remember != nil && s.lru.Contains(c.fp) {
		remember(c.fp)
	}
	delete(s.flight, key)
	s.mu.Unlock()
	close(c.done)
	return c.g, c.fp, c.err
}

// StoreStats is the /healthz snapshot of both tiers.
type StoreStats struct {
	Entries      int    `json:"entries"`
	Bytes        int64  `json:"bytes"`
	MaxBytes     int64  `json:"max_bytes"`
	SpillDir     string `json:"spill_dir,omitempty"`
	SpillFiles   int64  `json:"spill_files,omitempty"`
	SpillBytes   int64  `json:"spill_bytes,omitempty"`
	SpillBudget  int64  `json:"spill_budget_bytes,omitempty"`
	Rehydrations int64  `json:"rehydrations,omitempty"`
	Corrupt      int64  `json:"corrupt_quarantined,omitempty"`
}

// Stats snapshots the store for the health endpoint.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{Entries: s.lru.Len(), Bytes: s.lru.Cost(), MaxBytes: s.maxBytes}
	s.mu.Unlock()
	if sp := s.spill; sp != nil {
		sp.mu.Lock()
		st.SpillDir, st.SpillBudget = sp.dir, sp.maxBytes
		st.SpillBytes, st.SpillFiles = sp.idx.Cost(), int64(sp.idx.Len())
		sp.mu.Unlock()
		st.Rehydrations = sp.rehydrations.Load()
		st.Corrupt = sp.corrupt.Load()
	}
	return st
}
