package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/service/ingest"
)

// UploadStats is what an upload spent — what cmd/dmgm-load reports as
// upload throughput.
type UploadStats struct {
	// ChunksSent counts chunk PUTs that reached the server (retries
	// included).
	ChunksSent int
	// ChunksRetried counts chunk PUTs repeated after a failure.
	ChunksRetried int
	// BytesSent counts body bytes across all PUTs (retries included).
	BytesSent int64
	// ShortCircuit reports that the server already held the graph: the
	// transfer stopped after the first chunk.
	ShortCircuit bool
	// Elapsed is the wall time of the whole upload.
	Elapsed time.Duration
}

// UploadOptions shape an Upload call. The zero value works.
type UploadOptions struct {
	// ChunkBytes is the chunk size to request (0: the server default).
	ChunkBytes int64
}

// maxChunkRetries bounds UploadChunk's retries of one chunk, and so
// Upload's and UploadResume's.
const maxChunkRetries = 3

// Upload ships an encoded graph to the daemon through the chunked upload
// API (docs/PROTOCOL.md §7) and returns the graph_ref to submit jobs
// against. The transfer is resumable and content-addressed: chunks are
// retried individually on failure, and a graph the daemon already holds
// short-circuits after the first chunk. An upload that fails after its
// session opened aborts the session, so it does not hold the tenant's
// upload slot until the session expires.
func (c *Client) Upload(ctx context.Context, enc []byte, opts UploadOptions) (string, *UploadStats, error) {
	stats := &UploadStats{}
	if len(enc) == 0 {
		return "", stats, errors.New("upload: empty payload")
	}
	start := time.Now()
	st, err := c.UploadOpen(ctx, opts.ChunkBytes)
	if err != nil {
		return "", stats, err
	}
	ref, err := c.uploadChunks(ctx, st, enc, stats)
	stats.Elapsed = time.Since(start)
	if err != nil {
		// Best effort, and even when ctx is what failed; the TTL is the backstop.
		actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		c.UploadAbort(actx, st.UploadID) //nolint:errcheck // the upload's own error is the one to report
		cancel()
	}
	return ref, stats, err
}

// UploadGraph encodes g as DMGB and uploads it. DMGB is the right wire
// format: its header carries the fingerprint, so repeat uploads
// short-circuit.
func (c *Client) UploadGraph(ctx context.Context, g *graph.Graph, opts UploadOptions) (string, *UploadStats, error) {
	enc, err := graph.EncodeDMGB(g)
	if err != nil {
		return "", &UploadStats{}, err
	}
	return c.Upload(ctx, enc, opts)
}

// UploadOpen opens an upload session.
func (c *Client) UploadOpen(ctx context.Context, chunkBytes int64) (*ingest.Status, error) {
	body, err := json.Marshal(struct {
		ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	}{chunkBytes})
	if err != nil {
		return nil, err
	}
	return c.uploadCall(ctx, http.MethodPost, "/v1/uploads", body, jsonBody)
}

// UploadStatus fetches a session's status — the resume point.
func (c *Client) UploadStatus(ctx context.Context, id string) (*ingest.Status, error) {
	return c.uploadCall(ctx, http.MethodGet, "/v1/uploads/"+id, nil, nil)
}

// UploadChunk sends one chunk, with its checksum, retrying transient
// failures up to maxChunkRetries times. Retries of a received chunk are
// idempotent on the server.
func (c *Client) UploadChunk(ctx context.Context, id string, idx int, data []byte) (*ingest.Status, int, error) {
	sum := sha256.Sum256(data)
	path := fmt.Sprintf("/v1/uploads/%s/chunks/%d", id, idx)
	header := http.Header{"Content-Type": {"application/octet-stream"}, "X-Chunk-Sha256": {hex.EncodeToString(sum[:])}}
	for attempt := 0; ; attempt++ {
		st, err := c.uploadCall(ctx, http.MethodPut, path, data, header)
		if err == nil {
			return st, attempt, nil
		}
		// Client errors (4xx) are not transient; give up at once.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status < http.StatusInternalServerError {
			return nil, attempt, err
		}
		if attempt >= maxChunkRetries {
			return nil, attempt, fmt.Errorf("chunk %d failed after %d retries: %w", idx, attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, attempt, ctx.Err()
		case <-time.After(50 * time.Millisecond << uint(attempt)):
		}
	}
}

// UploadComplete finalizes a session.
func (c *Client) UploadComplete(ctx context.Context, id string, chunks int) (*ingest.Status, error) {
	body, err := json.Marshal(struct {
		Chunks int `json:"chunks"`
	}{chunks})
	if err != nil {
		return nil, err
	}
	return c.uploadCall(ctx, http.MethodPost, "/v1/uploads/"+id+"/complete", body, jsonBody)
}

// UploadAbort discards a session.
func (c *Client) UploadAbort(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/uploads/"+id, nil, nil, nil)
}

// UploadResume continues an interrupted upload: it reads the session's
// received ranges and sends only the missing chunks. Stats accumulate into
// stats.
func (c *Client) UploadResume(ctx context.Context, id string, enc []byte, stats *UploadStats) (string, error) {
	st, err := c.UploadStatus(ctx, id)
	if err != nil {
		return "", err
	}
	return c.uploadChunks(ctx, st, enc, stats)
}

// uploadChunks drives a session from its current status to completion.
func (c *Client) uploadChunks(ctx context.Context, st *ingest.Status, enc []byte, stats *UploadStats) (string, error) {
	if ref := settledRef(st, stats); ref != "" {
		return ref, nil
	}
	id, size := st.UploadID, st.ChunkBytes
	total := int((int64(len(enc)) + size - 1) / size)
	have := make(map[int]bool)
	for _, r := range st.ReceivedRanges {
		for i := r[0]; i < r[1]; i++ {
			have[i] = true
		}
	}
	for idx := 0; idx < total; idx++ {
		if have[idx] {
			continue
		}
		off := int64(idx) * size
		end := off + size
		if end > int64(len(enc)) {
			end = int64(len(enc))
		}
		data := enc[off:end]
		cst, retries, err := c.UploadChunk(ctx, id, idx, data)
		stats.ChunksSent += 1 + retries
		stats.ChunksRetried += retries
		stats.BytesSent += int64(len(data)) * int64(1+retries)
		if err != nil {
			return "", err
		}
		if ref := settledRef(cst, stats); ref != "" {
			return ref, nil
		}
	}
	fst, err := c.UploadComplete(ctx, id, total)
	if err != nil {
		return "", err
	}
	if ref := settledRef(fst, stats); ref != "" {
		return ref, nil
	}
	return "", fmt.Errorf("upload %s finished in state %s: %s", id, fst.State, fst.Error)
}

// settledRef extracts the graph_ref from a settled session status.
func settledRef(st *ingest.Status, stats *UploadStats) string {
	switch st.State {
	case ingest.StateShortCircuit:
		stats.ShortCircuit = true
		return st.GraphRef
	case ingest.StateComplete:
		return st.GraphRef
	}
	return ""
}

// uploadCall performs one upload-API request expecting a Status body.
func (c *Client) uploadCall(ctx context.Context, method, path string, body []byte, header http.Header) (*ingest.Status, error) {
	var st ingest.Status
	if err := c.do(ctx, method, path, body, header, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// FaultTransport fails the first PUT of every Every-th chunk of an upload
// (chunk indexes Every-1, 2*Every-1, ...) with a transport error, so that
// UploadChunk's retry loop runs for real: the load generator's
// -upload-fault mode.
type FaultTransport struct {
	Every  int
	Faults atomic.Int64 // failures injected
	failed sync.Map     // chunk paths already failed once
}

func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	dir, file := path.Split(req.URL.Path)
	idx, err := strconv.Atoi(file)
	if err == nil && req.Method == http.MethodPut && strings.HasSuffix(dir, "/chunks/") && (idx+1)%t.Every == 0 {
		if _, again := t.failed.LoadOrStore(req.URL.Path, true); !again {
			t.Faults.Add(1)
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, fmt.Errorf("injected fault: first PUT of chunk %d", idx)
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}
