package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// ingestTestGraph is big enough that its DMGB encoding spans several small
// chunks.
func ingestTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(400, 2400, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestManager(t testing.TB, mutate func(*Config)) (*Manager, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		TTL:      time.Minute,
		Store:    NewStore(64<<20, reg),
		Registry: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m := NewManager(cfg)
	t.Cleanup(m.Stop)
	return m, reg
}

// chunksOf splits enc into fixed-size chunks.
func chunksOf(enc []byte, size int64) [][]byte {
	var out [][]byte
	for off := int64(0); off < int64(len(enc)); off += size {
		end := off + size
		if end > int64(len(enc)) {
			end = int64(len(enc))
		}
		out = append(out, enc[off:end])
	}
	return out
}

func mustAppend(t *testing.T, m *Manager, s *session, idx int, data []byte) *Status {
	t.Helper()
	st, err := m.Append(s, idx, data, "")
	if err != nil {
		t.Fatalf("append chunk %d: %v", idx, err)
	}
	return st
}

func mustComplete(t *testing.T, m *Manager, s *session, chunks int) *Status {
	t.Helper()
	st, err := m.Complete(s, chunks, nil)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	return st
}

func TestUploadInOrder(t *testing.T) {
	m, _ := newTestManager(t, nil)
	g := ingestTestGraph(t)
	enc, err := graph.EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}
	chunks := chunksOf(enc, 2048)
	if len(chunks) < 4 {
		t.Fatalf("want >=4 chunks, got %d (grow the test graph)", len(chunks))
	}
	s, err := m.Open(2048)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		st := mustAppend(t, m, s, i, c)
		if i == 0 && st.Fingerprint != graph.Fingerprint(g) {
			t.Fatalf("after chunk 0 the declared fingerprint should be visible, got %q", st.Fingerprint)
		}
	}
	st := mustComplete(t, m, s, len(chunks))
	if st.State != StateComplete {
		t.Fatalf("state %s, want complete", st.State)
	}
	if st.GraphRef != graph.Fingerprint(g) {
		t.Fatalf("graph_ref %s, want the fingerprint", st.GraphRef)
	}
	got, ok := m.cfg.Store.Get(st.GraphRef)
	if !ok {
		t.Fatal("completed graph not in the store")
	}
	if graph.Fingerprint(got) != graph.Fingerprint(g) {
		t.Fatal("stored graph differs")
	}
}

func TestUploadOutOfOrderAndReplay(t *testing.T) {
	m, reg := newTestManager(t, nil)
	g := ingestTestGraph(t)
	enc, _ := graph.EncodeDMGB(g)
	chunks := chunksOf(enc, 2048)
	s, err := m.Open(2048)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse order: nothing can feed until chunk 0 lands last.
	for i := len(chunks) - 1; i >= 0; i-- {
		mustAppend(t, m, s, i, chunks[i])
	}
	// Duplicate replay of a middle chunk is idempotent.
	before := m.Status(s).ReceivedBytes
	st := mustAppend(t, m, s, 1, chunks[1])
	if st.ReceivedBytes != before {
		t.Fatalf("replay changed received bytes: %d -> %d", before, st.ReceivedBytes)
	}
	if v, _ := reg.Snapshot().Counters["ingest.chunks_replayed"]; v != 1 {
		t.Fatalf("chunks_replayed = %d, want 1", v)
	}
	// Conflicting replay is rejected.
	bogus := append([]byte(nil), chunks[1]...)
	bogus[0] ^= 0xff
	if _, err := m.Append(s, 1, bogus, ""); err == nil {
		t.Fatal("conflicting replay accepted")
	} else if ce := err.(*Refusal); ce.Status != http.StatusConflict {
		t.Fatalf("conflicting replay status %d, want 409", ce.Status)
	}
	st = mustComplete(t, m, s, len(chunks))
	if st.State != StateComplete || st.GraphRef != graph.Fingerprint(g) {
		t.Fatalf("status %+v after out-of-order upload", st)
	}
}

func TestUploadChecksumEnforced(t *testing.T) {
	m, _ := newTestManager(t, nil)
	g := ingestTestGraph(t)
	enc, _ := graph.EncodeDMGB(g)
	chunks := chunksOf(enc, 2048)
	s, _ := m.Open(2048)
	sum := sha256.Sum256(chunks[0])
	if _, err := m.Append(s, 0, chunks[0], hex.EncodeToString(sum[:])); err != nil {
		t.Fatalf("correct checksum rejected: %v", err)
	}
	wrong := sha256.Sum256([]byte("not the chunk"))
	_, err := m.Append(s, 1, chunks[1], hex.EncodeToString(wrong[:]))
	if err == nil {
		t.Fatal("wrong checksum accepted")
	}
	if ce := err.(*Refusal); ce.Status != http.StatusBadRequest {
		t.Fatalf("checksum mismatch status %d, want 400", ce.Status)
	}
}

func TestUploadShortChunkRules(t *testing.T) {
	m, _ := newTestManager(t, nil)
	s, _ := m.Open(2048)
	shortChunk := make([]byte, 100)
	full := make([]byte, 2048)
	mustAppend(t, m, s, 3, shortChunk) // provisional last chunk
	if _, err := m.Append(s, 4, full, ""); err == nil {
		t.Fatal("chunk beyond the short chunk accepted")
	}
	if _, err := m.Append(s, 2, make([]byte, 50), ""); err == nil {
		t.Fatal("second short chunk accepted")
	}
	mustAppend(t, m, s, 2, full) // filling below the short chunk is fine
}

func TestUploadTTLExpiryMidUpload(t *testing.T) {
	m, reg := newTestManager(t, func(c *Config) {
		c.TTL = 40 * time.Millisecond
		c.SweepEvery = 10 * time.Millisecond
	})
	g := ingestTestGraph(t)
	enc, _ := graph.EncodeDMGB(g)
	chunks := chunksOf(enc, 2048)
	s, err := m.Open(2048)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, s, 0, chunks[0])
	id := s.id

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.lookup(id); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not swept after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Snapshot().Counters["ingest.sessions_expired"]; v != 1 {
		t.Fatalf("sessions_expired = %d, want 1", v)
	}
	// The abandoned session's goroutines must have been released: its
	// decoder saw the aborted pipe.
	select {
	case <-s.decodedCh:
	case <-time.After(2 * time.Second):
		t.Fatal("decoder still running after expiry")
	}
}

func TestUploadShortCircuitOnKnownFingerprint(t *testing.T) {
	m, reg := newTestManager(t, nil)
	g := ingestTestGraph(t)
	fp := graph.Fingerprint(g)
	m.cfg.Store.Put(fp, g) // daemon already holds the graph
	enc, _ := graph.EncodeDMGB(g)
	chunks := chunksOf(enc, 2048)

	s, _ := m.Open(2048)
	st := mustAppend(t, m, s, 0, chunks[0])
	if st.State != StateShortCircuit {
		t.Fatalf("state after chunk 0 = %s, want short_circuit", st.State)
	}
	if st.GraphRef != fp {
		t.Fatalf("short-circuit graph_ref %q, want %s", st.GraphRef, fp)
	}
	if st.ReceivedChunks != 1 {
		t.Fatalf("short circuit after %d chunks, want 1", st.ReceivedChunks)
	}
	// Further chunks and completion are answered with the settled status,
	// not errors — a racing client drains gracefully.
	st = mustAppend(t, m, s, 1, chunks[1])
	if st.State != StateShortCircuit {
		t.Fatalf("chunk after short circuit flipped state to %s", st.State)
	}
	st = mustComplete(t, m, s, len(chunks))
	if st.State != StateShortCircuit || st.GraphRef != fp {
		t.Fatalf("complete after short circuit: %+v", st)
	}
	if v := reg.Snapshot().Counters["ingest.short_circuits"]; v != 1 {
		t.Fatalf("short_circuits = %d, want 1", v)
	}
}

func TestUploadTextGraphNoShortCircuit(t *testing.T) {
	// Text uploads carry no declared fingerprint; they decode fully and
	// complete normally.
	m, _ := newTestManager(t, nil)
	g := ingestTestGraph(t)
	var enc []byte
	{
		var b writerBuffer
		if err := graph.WriteText(&b, g); err != nil {
			t.Fatal(err)
		}
		enc = b.data
	}
	chunks := chunksOf(enc, 4096)
	s, _ := m.Open(4096)
	for i, c := range chunks {
		mustAppend(t, m, s, i, c)
	}
	st := mustComplete(t, m, s, len(chunks))
	if st.State != StateComplete || st.GraphRef != graph.Fingerprint(g) {
		t.Fatalf("text upload: %+v", st)
	}
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func TestUploadCorruptStreamFails(t *testing.T) {
	m, _ := newTestManager(t, nil)
	g := ingestTestGraph(t)
	enc, _ := graph.EncodeDMGB(g)
	enc[len(enc)-1] ^= 0x01 // break the last weight; fingerprint mismatch
	chunks := chunksOf(enc, 2048)
	s, _ := m.Open(2048)
	for i, c := range chunks {
		mustAppend(t, m, s, i, c)
	}
	_, err := m.Complete(s, len(chunks), nil)
	if err == nil {
		t.Fatal("corrupt stream completed")
	}
	ce := err.(*Refusal)
	if ce.Status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt stream status %d, want 422", ce.Status)
	}
	if m.Status(s).State != StateFailed {
		t.Fatalf("state %s, want failed", m.Status(s).State)
	}
}

func TestUploadIncompleteRejected(t *testing.T) {
	m, _ := newTestManager(t, nil)
	g := ingestTestGraph(t)
	enc, _ := graph.EncodeDMGB(g)
	chunks := chunksOf(enc, 2048)
	s, _ := m.Open(2048)
	for i, c := range chunks {
		if i == 2 {
			continue // hole
		}
		mustAppend(t, m, s, i, c)
	}
	_, err := m.Complete(s, len(chunks), nil)
	if err == nil {
		t.Fatal("completed with a missing chunk")
	}
	if ce := err.(*Refusal); ce.Status != http.StatusConflict {
		t.Fatalf("missing chunk status %d, want 409", ce.Status)
	}
	// The session is still uploading; filling the hole completes it.
	mustAppend(t, m, s, 2, chunks[2])
	st := mustComplete(t, m, s, len(chunks))
	if st.State != StateComplete {
		t.Fatalf("state %s after filling the hole", st.State)
	}
}

func TestUploadStatusRanges(t *testing.T) {
	m, _ := newTestManager(t, nil)
	s, _ := m.Open(2048)
	full := make([]byte, 2048)
	for _, i := range []int{0, 1, 3, 4, 7} {
		mustAppend(t, m, s, i, full)
	}
	st := m.Status(s)
	want := [][2]int{{0, 2}, {3, 5}, {7, 8}}
	if len(st.ReceivedRanges) != len(want) {
		t.Fatalf("ranges %v, want %v", st.ReceivedRanges, want)
	}
	for i := range want {
		if st.ReceivedRanges[i] != want[i] {
			t.Fatalf("ranges %v, want %v", st.ReceivedRanges, want)
		}
	}
	if st.NextMissing != 2 {
		t.Fatalf("next_missing %d, want 2", st.NextMissing)
	}
}

func TestUploadSessionLimit(t *testing.T) {
	m, _ := newTestManager(t, func(c *Config) { c.MaxSessions = 2 })
	if _, err := m.Open(0); err != nil {
		t.Fatal(err)
	}
	s2, err := m.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(0); err == nil {
		t.Fatal("third session admitted past MaxSessions=2")
	}
	if !m.Abort(s2.id) {
		t.Fatal("abort failed")
	}
	if _, err := m.Open(0); err != nil {
		t.Fatalf("open after abort: %v", err)
	}
}

func TestUploadByteBudget(t *testing.T) {
	m, _ := newTestManager(t, func(c *Config) { c.MaxBytes = 4096 })
	s, _ := m.Open(2048)
	full := make([]byte, 2048)
	mustAppend(t, m, s, 0, full)
	mustAppend(t, m, s, 1, full)
	_, err := m.Append(s, 2, full, "")
	if err == nil {
		t.Fatal("session exceeded MaxBytes")
	}
	if ce := err.(*Refusal); ce.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget status %d, want 413", ce.Status)
	}
}

// TestStoreEvictionUnderConcurrentJobs puts graphs from many goroutines
// through a tiny store while readers hold and traverse evicted graphs —
// the -race assertion that eviction never invalidates a held reference.
func TestStoreEvictionUnderConcurrentJobs(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(1, reg) // clamps to 1 MiB; a few graphs thrash it
	graphs := make([]*graph.Graph, 6)
	fps := make([]string, len(graphs))
	for i := range graphs {
		var err error
		graphs[i], err = gen.ErdosRenyi(2000, 12000, true, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = graph.Fingerprint(graphs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w + i) % len(graphs)
				st.Put(fps[k], graphs[k])
				if g, ok := st.Get(fps[(w+i+1)%len(graphs)]); ok {
					// Simulate a job holding the reference across evictions.
					var sum int64
					for _, x := range g.Xadj {
						sum += x
					}
					_ = sum
				}
			}
		}(w)
	}
	wg.Wait()
	if s := st.Stats(); s.Bytes > 1<<20 && s.Entries > 1 {
		t.Fatalf("store over budget: %d bytes in %d entries", s.Bytes, s.Entries)
	}
	if v := reg.Snapshot().Counters["ingest.store_evictions"]; v == 0 {
		t.Fatal("no evictions under a 1 MiB budget")
	}
}

func TestStoreLoadPathSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	g := ingestTestGraph(t)
	dir := t.TempDir()
	path := dir + "/g.dmgb"
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, fp, err := st.LoadPath(path)
			if err != nil {
				errs <- err
				return
			}
			if fp != graph.Fingerprint(g) || graph.Fingerprint(got) != fp {
				errs <- fmt.Errorf("LoadPath returned the wrong graph")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["ingest.store_misses"] != 1 {
		t.Fatalf("store_misses = %d, want 1 (single flight)", snap.Counters["ingest.store_misses"])
	}
	// A second round is all hits via the path index.
	if _, _, err := st.LoadPath(path); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Snapshot().Counters["ingest.store_hits"]; hits == 0 {
		t.Fatal("repeat LoadPath did not hit the store")
	}
}

// TestStoreResolveSingleFlight is the spill-tier twin: concurrent resolves of
// one fingerprint that is on disk but not in memory read the file once.
func TestStoreResolveSingleFlight(t *testing.T) {
	dir := t.TempDir()
	g := ingestTestGraph(t)
	fp := graph.Fingerprint(g)
	st1, _ := spillStore(t, dir)
	st1.Put(fp, g)
	st, reg := spillStore(t, dir) // same disk, empty memory
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, _, ok := st.Resolve(fp); !ok || graph.Fingerprint(got) != fp {
				errs <- fmt.Errorf("Resolve ok=%v or the wrong graph", ok)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := reg.Snapshot().Counters["ingest.spill_rehydrations"]; v != 1 {
		t.Fatalf("spill_rehydrations = %d, want 1 (single flight)", v)
	}
}
