package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/ingest"
)

// uploadChunkSize splits the test graph's DMGB encoding into enough chunks
// to exercise ordering, retry, and resume (the acceptance bar is ≥ 4).
const uploadChunkSize = 2048

func encodeDMGB(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	enc, err := graph.EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestUploadedGraphMatchesInlineResult is the acceptance gate of the
// streaming-ingest path: a graph uploaded in ≥ 4 chunks — one chunk
// retried, and the transfer resumed after a simulated disconnect — must
// produce a job result byte-identical to the same job with the graph sent
// inline as JSON text.
func TestUploadedGraphMatchesInlineResult(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 2}, true)
	ctx := context.Background()
	enc := encodeDMGB(t, g)
	total := (len(enc) + uploadChunkSize - 1) / uploadChunkSize
	if total < 4 {
		t.Fatalf("test graph encodes to %d chunks, need >= 4", total)
	}

	// The upload runs first — an inline job of the same graph would warm the
	// content-addressed store and short-circuit the transfer we are here to
	// exercise chunk by chunk.
	// Chunked upload with a mid-transfer "disconnect": send the first half,
	// drop the client state, then resume from the server-reported ranges.
	st, err := cl.UploadOpen(ctx, uploadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	id := st.UploadID
	half := total / 2
	for idx := 0; idx < half; idx++ {
		end := (idx + 1) * uploadChunkSize
		if end > len(enc) {
			end = len(enc)
		}
		if _, _, err := cl.UploadChunk(ctx, id, idx, enc[idx*uploadChunkSize:end]); err != nil {
			t.Fatalf("chunk %d: %v", idx, err)
		}
	}
	// One chunk retried: replay a chunk that already arrived (idempotent).
	if _, _, err := cl.UploadChunk(ctx, id, 1, enc[uploadChunkSize:2*uploadChunkSize]); err != nil {
		t.Fatalf("retried chunk: %v", err)
	}
	waitMetric(t, cl, "ingest.chunks_replayed", 1)

	// Resume after the disconnect: a fresh driver learns what arrived from
	// the status answer and sends only the remainder.
	stats := &client.UploadStats{}
	ref, err := cl.UploadResume(ctx, id, enc, stats)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if ref != graph.Fingerprint(g) {
		t.Fatalf("graph_ref %s is not the graph fingerprint", ref)
	}
	if stats.ChunksSent >= total {
		t.Fatalf("resume re-sent everything: %d chunks of %d total", stats.ChunksSent, total)
	}

	// The by-ref job must answer byte-identically to an inline submission
	// of the same graph.
	inlineReq := &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Params: dmgm.Params{Seed: 3}, NoCache: true}
	inline, err := cl.Submit(ctx, inlineReq)
	if err != nil {
		t.Fatal(err)
	}
	refReq := &service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, Params: dmgm.Params{Seed: 3}, NoCache: true}
	byRef, err := cl.Submit(ctx, refReq)
	if err != nil {
		t.Fatal(err)
	}
	if byRef.Result != inline.Result {
		t.Fatal("uploaded-graph job result differs from the inline-graph result")
	}
	if byRef.Fingerprint != inline.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", byRef.Fingerprint, inline.Fingerprint)
	}
	if byRef.Weight != inline.Weight || byRef.Cardinality != inline.Cardinality {
		t.Fatal("matching quality differs between the inline and by-ref paths")
	}
}

// TestSecondUploadShortCircuits asserts the content-addressed fast path: a
// second upload of a graph the daemon already holds settles after its first
// chunk, with the rest of the transfer never sent.
func TestSecondUploadShortCircuits(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	enc := encodeDMGB(t, g)

	ref, first, err := cl.Upload(ctx, enc, client.UploadOptions{ChunkBytes: uploadChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if first.ShortCircuit {
		t.Fatal("first upload short-circuited against an empty store")
	}
	totalChunks := (len(enc) + uploadChunkSize - 1) / uploadChunkSize

	ref2, second, err := cl.Upload(ctx, enc, client.UploadOptions{ChunkBytes: uploadChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ShortCircuit {
		t.Fatal("second upload of known content did not short-circuit")
	}
	if ref2 != ref {
		t.Fatalf("short-circuit ref %s != original %s", ref2, ref)
	}
	if second.ChunksSent >= totalChunks {
		t.Fatalf("short-circuit still sent %d of %d chunks", second.ChunksSent, totalChunks)
	}
	if second.ChunksSent != 1 {
		t.Fatalf("short-circuit after %d chunks, want 1", second.ChunksSent)
	}
	waitMetric(t, cl, "ingest.short_circuits", 1)
}

// TestUploadShortCircuitsOnInlineGraph: an inline job leaves its graph in
// the store, after which an upload of the same graph short-circuits. The
// result cache is off, so the store is what answered.
func TestUploadShortCircuitsOnInlineGraph(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1, CacheEntries: -1}, true)
	ctx := context.Background()
	if _, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoColor, Graph: gtext, Ranks: 2}); err != nil {
		t.Fatal(err)
	}
	ref, stats, err := cl.Upload(ctx, encodeDMGB(t, g), client.UploadOptions{ChunkBytes: uploadChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortCircuit {
		t.Fatal("upload after an inline job of the same graph did not short-circuit")
	}
	if _, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoColor, GraphRef: ref, Ranks: 2}); err != nil {
		t.Fatalf("job by the short-circuited ref: %v", err)
	}
}

// TestUploadAfterEvictionTransfersTheGraph is the regression test of a
// short-circuit that handed out a dead ref. A cached result once counted as
// holding its graph: after the graph left the store, an upload of it
// short-circuited on the cached result alone, and every job by the ref it
// returned answered 404 — as did every re-upload's. Only the store (memory or
// spill) may settle an upload without its bytes.
func TestUploadAfterEvictionTransfersTheGraph(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1, StoreBytes: 1 << 20}, true)
	ctx := context.Background()
	color := service.Request{Algorithm: service.AlgoColor, Graph: gtext, Ranks: 2}
	first, err := cl.Submit(ctx, &color)
	if err != nil {
		t.Fatal(err)
	}
	// A 300² grid outgrows the 1 MiB store on its own and evicts the graph.
	grid, err := gen.Grid2D(300, 300, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteText(&sb, grid); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoColor, Graph: sb.String(), Ranks: 2, Partition: "block"}); err != nil {
		t.Fatal(err)
	}
	ref, stats, err := cl.Upload(ctx, encodeDMGB(t, g), client.UploadOptions{ChunkBytes: uploadChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShortCircuit {
		t.Fatal("upload short-circuited on a graph the store no longer holds")
	}
	byRef := color
	byRef.Graph, byRef.GraphRef = "", ref
	resp, err := cl.Submit(ctx, &byRef)
	if err != nil {
		t.Fatalf("job by the uploaded ref: %v", err)
	}
	if resp.Result != first.Result {
		t.Fatal("the by-ref answer differs from the inline one")
	}
}

// TestInlineJobAfterUpload: once an inline text of an uploaded graph has
// been seen, later inline jobs run on the uploaded graph itself, unparsed —
// and answer byte for byte as the job by reference does.
func TestInlineJobAfterUpload(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byRef, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, Params: dmgm.Params{Seed: 3}, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the first parses the text, the second hits the memo
		inline, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Params: dmgm.Params{Seed: 3}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if inline.Fingerprint != ref || inline.Result != byRef.Result {
			t.Fatalf("inline job %d: fingerprint %s, or its result, differs from the by-ref job's", i, inline.Fingerprint)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["ingest.store_misses"] != 1 {
		t.Fatalf("store_misses = %d, want 1: the repeated text parsed again", m.Counters["ingest.store_misses"])
	}
}

// TestUploadFaultInjectionRetries drives the load generator's fault mode
// end to end: the transport fails the first PUT of every third chunk, each
// one is retried, and the upload still lands.
func TestUploadFaultInjectionRetries(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ft := &client.FaultTransport{Every: 3}
	cl.HTTP = &http.Client{Transport: ft}
	ref, stats, err := cl.UploadGraph(context.Background(), g, client.UploadOptions{ChunkBytes: uploadChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if ref != graph.Fingerprint(g) {
		t.Fatalf("graph_ref %s after faulted upload", ref)
	}
	total := (len(encodeDMGB(t, g)) + uploadChunkSize - 1) / uploadChunkSize
	faults := int(ft.Faults.Load())
	if faults != total/3 || faults == 0 {
		t.Fatalf("%d faults injected over %d chunks, want %d", faults, total, total/3)
	}
	if stats.ChunksRetried != faults || stats.ChunksSent != total+faults {
		t.Fatalf("%d chunks sent, %d retried for %d faults over %d chunks", stats.ChunksSent, stats.ChunksRetried, faults, total)
	}
}

// TestFailedUploadReleasesItsSlot: an upload that fails gives its tenant's
// upload slot back at once, rather than when its session expires. An empty
// payload is refused before a session opens; a refused chunk aborts the
// session it was sent to.
func TestFailedUploadReleasesItsSlot(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1, MaxUploadBytes: 8 << 10,
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{"up": {MaxUploads: 1}}}}, true)
	up := asTenant(cl, "up")
	ctx := context.Background()
	if _, _, err := up.Upload(ctx, nil, client.UploadOptions{}); err == nil {
		t.Fatal("an empty upload succeeded")
	}
	big := encodeDMGB(t, g)
	if len(big) <= 8<<10 {
		t.Fatalf("test graph encodes to %d bytes, need more than the 8 KiB bound", len(big))
	}
	_, _, err := up.Upload(ctx, big, client.UploadOptions{ChunkBytes: uploadChunkSize})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload past the byte bound: %v, want 413", err)
	}
	small, err := gen.ErdosRenyi(40, 80, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := up.UploadGraph(ctx, small, client.UploadOptions{ChunkBytes: uploadChunkSize}); err != nil {
		t.Fatalf("upload after two failed ones: %v", err)
	}
}

func TestGraphRefUnknownAnswers404(t *testing.T) {
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	_, err := cl.Submit(context.Background(), &service.Request{
		Algorithm: service.AlgoMatch,
		GraphRef:  "deadbeef",
		Ranks:     2,
	})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("unknown graph_ref: %v", err)
	}
	if apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown graph_ref status %d, want 404", apiErr.Status)
	}
}

// TestPartitionCacheWarm asserts jobs over the same stored graph at equal
// partitioning parameters partition once: the second job hits the warm
// partition cache even though its algorithm parameters (and so its result
// cache key) differ.
func TestPartitionCacheWarm(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := service.Request{GraphRef: ref, Ranks: 2, Params: dmgm.Params{Seed: 5}}

	match := base
	match.Algorithm = service.AlgoMatch
	if _, err := cl.Submit(ctx, &match); err != nil {
		t.Fatal(err)
	}
	color := base
	color.Algorithm = service.AlgoColor
	if _, err := cl.Submit(ctx, &color); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["service.partition_cache_hits"] == 0 {
		t.Fatal("second job over the same graph did not hit the partition cache")
	}
	if m.Counters["service.partition_cache_misses"] != 1 {
		t.Fatalf("partition_cache_misses = %d, want 1", m.Counters["service.partition_cache_misses"])
	}
}

// TestUploadSessionExpiryOverHTTP walks the TTL path through the HTTP
// surface: an abandoned session 404s after expiry and a new one succeeds.
func TestUploadSessionExpiryOverHTTP(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1, UploadTTL: 50 * time.Millisecond}, true)
	ctx := context.Background()
	enc := encodeDMGB(t, g)
	st, err := cl.UploadOpen(ctx, uploadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.UploadChunk(ctx, st.UploadID, 0, enc[:uploadChunkSize]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = cl.UploadStatus(ctx, st.UploadID)
		if apiErr, ok := err.(*client.APIError); ok && apiErr.Status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never expired: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The client recovers by uploading afresh.
	if _, _, err := cl.Upload(ctx, enc, client.UploadOptions{ChunkBytes: uploadChunkSize}); err != nil {
		t.Fatalf("re-upload after expiry: %v", err)
	}
}

// TestUploadTextAccepted uploads the text encoding through the chunked path:
// it decodes (no short-circuit — text carries no declared fingerprint) and
// answers jobs by ref.
func TestUploadTextAccepted(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	ref, stats, err := cl.Upload(ctx, []byte(gtext), client.UploadOptions{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ref != graph.Fingerprint(g) {
		t.Fatalf("upload ref %s", ref)
	}
	if stats.ShortCircuit {
		t.Fatal("text upload cannot short-circuit (no declared fingerprint)")
	}
	if _, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, NoCache: true}); err != nil {
		t.Fatalf("by-ref job: %v", err)
	}
}

// legacyBinary lays a graph out in the fixed little-endian format the daemon
// once accepted: five uint64 of header (magic "DMGM", version 1, n, the
// adjacency length, weighted), then Xadj, Adj and W verbatim.
func legacyBinary(n, nadj uint64, xadj []int64, adj []int32, w []float64) []byte {
	var buf bytes.Buffer
	weighted := uint64(0)
	if w != nil {
		weighted = 1
	}
	for _, v := range []any{[]uint64{0x444d_474d, 1, n, nadj, weighted}, xadj, adj, w} {
		binary.Write(&buf, binary.LittleEndian, v) //nolint:errcheck // fixed-size values into a buffer
	}
	return buf.Bytes()
}

// TestUploadRefusesHostileAndLegacyBinary is the regression gate of the
// format's removal. The legacy reader trusted its header: a 40-byte upload
// declaring 2^62 vertices died in make() on the session's decode goroutine
// and took the daemon with it, and a body with out-of-range adjacency was
// accepted, stored, and panicked the first kernel that touched it. Now the
// format is gone — an honest legacy file is refused like the hostile ones —
// each upload ends in a failed session under a 4xx answer, and the daemon
// keeps serving. The text reader's own header claim gets the same treatment.
func TestUploadRefusesHostileAndLegacyBinary(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	for name, enc := range map[string][]byte{
		"legacy header declaring 2^62 vertices":   legacyBinary(1<<62, 0, nil, nil, nil),
		"legacy body with out-of-range adjacency": legacyBinary(2, 2, []int64{0, 1, 2}, []int32{7, -3}, nil),
		"well-formed legacy binary":               legacyBinary(uint64(g.NumVertices()), uint64(len(g.Adj)), g.Xadj, g.Adj, g.W),
		"text header declaring 9e18 edges":        []byte("g 4 9000000000000000000\ne 0 1 1\n"),
	} {
		before, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = cl.Upload(ctx, enc, client.UploadOptions{ChunkBytes: 1 << 20})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status < 400 || apiErr.Status >= 500 {
			t.Fatalf("%s: upload ended in %v, want a 4xx refusal", name, err)
		}
		after, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatalf("%s: daemon stopped answering /metrics: %v", name, err)
		}
		if got := after.Counters["ingest.sessions_failed"] - before.Counters["ingest.sessions_failed"]; got != 1 {
			t.Fatalf("%s: %d sessions failed over the upload, want 1", name, got)
		}
		if after.Gauges["ingest.store_entries"] != before.Gauges["ingest.store_entries"] {
			t.Fatalf("%s: the refused upload left a graph in the store", name)
		}
		if err := cl.Health(ctx); err != nil {
			t.Fatalf("%s: daemon unhealthy after the upload: %v", name, err)
		}
		if _, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, NoCache: true}); err != nil {
			t.Fatalf("%s: next job failed: %v", name, err)
		}
	}
}

// TestUploadStatusHTTPShape pins the §7 wire shape: ranges, next_missing,
// and the early fingerprint on a partially-uploaded DMGB session.
func TestUploadStatusHTTPShape(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	enc := encodeDMGB(t, g)
	st, err := cl.UploadOpen(ctx, uploadChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0 and 2: a hole at 1.
	for _, idx := range []int{0, 2} {
		if _, _, err := cl.UploadChunk(ctx, st.UploadID, idx, enc[idx*uploadChunkSize:(idx+1)*uploadChunkSize]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.UploadStatus(ctx, st.UploadID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != ingest.StateUploading {
		t.Fatalf("state %s", got.State)
	}
	if got.NextMissing != 1 {
		t.Fatalf("next_missing %d, want 1", got.NextMissing)
	}
	want := fmt.Sprintf("%v", [][2]int{{0, 1}, {2, 3}})
	if fmt.Sprintf("%v", got.ReceivedRanges) != want {
		t.Fatalf("ranges %v, want %s", got.ReceivedRanges, want)
	}
	if got.Fingerprint != graph.Fingerprint(g) {
		t.Fatal("DMGB session does not expose the declared fingerprint before completion")
	}
}
