// Package service is the serving layer of this repository: a long-running
// job daemon that accepts matching and coloring requests over HTTP JSON and
// executes them on a pool of reusable in-process mpi worlds.
//
// The paper's algorithms are cheap per run — message bundling and bounded
// rounds keep each job to a handful of supersteps — which makes them well
// suited to a request/response service; what dominates a one-shot CLI run
// (process start, partitioning, World construction) is exactly what a
// daemon amortizes. The serving layer therefore adds three reuse tiers:
//
//   - a World pool that recycles rank goroutine worlds across jobs
//     (mpi.World.Reset), so per-job World setup disappears;
//   - an LRU result cache keyed by (graph fingerprint, algorithm, params),
//     so repeated identical requests never recompute, and concurrent
//     identical ones run once;
//   - per-tenant fair admission: every job and upload is accounted to a
//     tenant (the X-DMGM-Tenant header, or "default"), each tenant has a
//     token-bucket rate limit, a bounded queue, and concurrency budgets,
//     and a weighted deficit-round-robin dispatcher interleaves tenant
//     queues so a hot caller sheds (429 + Retry-After from its own
//     bucket) without starving anyone else.
//
// The HTTP surface is specified in docs/PROTOCOL.md §6 and the tenancy
// contract in §8; architecture context is DESIGN.md §9. Operational
// guidance (sizing, quota tuning, drain) is docs/OPERATIONS.md.
package service

import (
	"fmt"
	"time"

	"repro/dmgm"
	"repro/internal/partition"
)

// Algorithm names accepted in a job request.
const (
	AlgoMatch = dmgm.AlgoMatch
	AlgoColor = dmgm.AlgoColor
)

// Request is one job submission, the JSON body of POST /v1/jobs.
//
// Exactly one of Graph (the inline text edge-list format of
// internal/graph) and GraphRef (the fingerprint of a graph already held by
// the daemon — from a chunked upload or a prior inline job) must be set.
// The run parameters are dmgm.Params, the fields the dmgm-match / dmgm-color
// flags bind too, defaulted and checked by the one dmgm.Job.Normalize — so a
// service job and a CLI run with equal inputs produce byte-identical results.
type Request struct {
	// Algorithm is "match" or "color".
	Algorithm string `json:"algorithm"`
	// Graph is the graph inline, in the text edge-list format.
	Graph string `json:"graph,omitempty"`
	// GraphRef is a graph fingerprint resolved against the daemon's
	// content-addressed store (docs/PROTOCOL.md §7). An unknown ref — never
	// uploaded, or evicted — answers 404; re-upload to restore it.
	GraphRef string `json:"graph_ref,omitempty"`
	// Ranks is the number of ranks of the distributed run (default 4).
	Ranks int `json:"ranks,omitempty"`
	// Partition selects the partitioner: multilevel (default) | bfs |
	// block | random.
	Partition string `json:"partition,omitempty"`
	dmgm.Params
	// TimeoutMillis caps this job's queue wait plus run time; 0 uses the
	// server default. The cap is clamped to the server default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this job (the result is still
	// stored for later hits).
	NoCache bool `json:"no_cache,omitempty"`
}

// normalize fills defaults and validates the request shape (everything
// checkable without the graph); the job's parameters are dmgm.Job.Normalize's.
// It returns a client-error message ("" = ok).
func (r *Request) normalize(maxRanks int) string {
	switch r.Algorithm {
	case AlgoMatch, AlgoColor:
	case "":
		return "algorithm is required: match | color"
	default:
		return fmt.Sprintf("unknown algorithm %q: want match | color", r.Algorithm)
	}
	if (r.Graph == "") == (r.GraphRef == "") {
		return "exactly one of graph (inline) and graph_ref must be set"
	}
	if r.Ranks == 0 {
		r.Ranks = 4
	}
	if r.Ranks < 1 {
		return fmt.Sprintf("ranks must be positive, got %d", r.Ranks)
	}
	if maxRanks > 0 && r.Ranks > maxRanks {
		return fmt.Sprintf("ranks %d exceeds the server bound %d", r.Ranks, maxRanks)
	}
	if r.Partition == "" {
		r.Partition = "multilevel"
	}
	if _, err := partition.ByName(r.Partition); err != nil {
		return err.Error()
	}
	job := r.job()
	if err := job.Normalize(); err != nil {
		return err.Error()
	}
	r.Params = job.Params
	if r.TimeoutMillis < 0 {
		return fmt.Sprintf("timeout_ms must be non-negative, got %d", r.TimeoutMillis)
	}
	return ""
}

// job is the run the request names.
func (r *Request) job() dmgm.Job { return dmgm.Job{Algorithm: r.Algorithm, Params: r.Params} }

// cacheKey derives the result-cache key: the partition's derivation plus the
// job's key, which between them name every parameter that can change the
// result. Timeout and cache directives are deliberately excluded — they
// affect scheduling, never the answer.
func (r *Request) cacheKey(fingerprint string) string {
	return partitionKey(fingerprint, r.Partition, r.Ranks, r.Seed) + "|" + r.job().Key()
}

// timeout resolves the per-job deadline against the server default: jobs may
// shorten it, never extend it.
func (r *Request) timeout(def time.Duration) time.Duration {
	if r.TimeoutMillis <= 0 {
		return def
	}
	d := time.Duration(r.TimeoutMillis) * time.Millisecond
	if d > def {
		return def
	}
	return d
}

// Response is the job result, the JSON body of a 200 answer. Result carries
// the text serialization of the matching or coloring — byte-identical to
// what the dmgm-match / dmgm-color CLIs write with -o, which the conformance
// suite asserts.
type Response struct {
	JobID       string `json:"job_id"`
	Cached      bool   `json:"cached"`
	Algorithm   string `json:"algorithm"`
	Ranks       int    `json:"ranks"`
	Fingerprint string `json:"graph_fingerprint"`
	// Tenant is the tenant the job was accounted to (docs/PROTOCOL.md §8):
	// the X-DMGM-Tenant request header, or "default" for anonymous callers.
	Tenant string `json:"tenant,omitempty"`
	// TraceID is the request's W3C trace id (docs/PROTOCOL.md §9) — the
	// caller's own traceparent trace, or one the server minted. Stamped per
	// request, like Tenant: a cache hit reports the requester's trace, not
	// the producing run's.
	TraceID string `json:"trace_id,omitempty"`

	// Matching results.
	Weight      float64 `json:"weight,omitempty"`
	Cardinality int     `json:"cardinality,omitempty"`

	// Coloring results.
	Colors    int   `json:"colors,omitempty"`
	Rounds    int   `json:"rounds,omitempty"`
	Conflicts int64 `json:"conflicts,omitempty"`

	// Traffic totals of the run that produced the result. A cached answer
	// reports the producing run's traffic: the counts are a property of
	// (graph, partition, algorithm), not of the serving path.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`

	// Result is the text serialization of the matching/coloring.
	Result string `json:"result"`
	// ElapsedSeconds is the execution time of the producing run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}
