// Command dmgm-load drives a dmgm-serve daemon with concurrent matching
// and coloring jobs and reports throughput and client-side latency
// percentiles. It is the service's load generator and smoke harness: CI
// starts a daemon, points dmgm-load at it, and asserts zero failures plus
// a warm result cache.
//
// Usage:
//
//	dmgm-load -addr 127.0.0.1:8321 -in graph.txt -algo both -n 32 -c 8
//	dmgm-load -addr 127.0.0.1:8321 -in graph.bin -algo match -require-cached
//	dmgm-load -addr 127.0.0.1:8321 -in graph.txt -json > load.json
//	dmgm-load -addr 127.0.0.1:8321 -in big.dmgb -upload -upload-chunk 262144
//	dmgm-load -addr 127.0.0.1:8321 -in g.txt -upload -restart-check state.json   # record, then kill+restart the daemon, then run again to verify
//
// With -upload the graph ships once through the resumable chunked upload
// API (DMGB encoding, docs/PROTOCOL.md §7) and every job references it by
// graph_ref — the ingest path. -upload-fault n fails the first PUT of every
// n-th chunk in the client's transport, so the per-chunk retry path runs;
// upload throughput and retry counts are reported alongside job latency.
// Without -upload the graph is sent inline as text with every request.
//
// Jobs cycle through -distinct seeds, so any run with -n greater than
// -distinct resubmits identical requests and exercises the result cache.
// Shed submissions (429/503) are retried with the server's Retry-After
// hint; a job only counts as failed when its retries are exhausted or the
// request itself is rejected. Exit status is non-zero on any failure, and
// on a cold cache under -require-cached.
//
// -tenant accounts every request to a named tenant (docs/PROTOCOL.md §8);
// two dmgm-load processes with different tenants reproduce the fairness
// demo in the README. After the run the generator scrapes its own tenant's
// reject counter: -forbid-tenant-rejects fails if it is non-zero (the
// well-behaved tenant must never be shed), -require-tenant-rejects fails
// if it is zero (the saturating tenant must have hit its quota).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dmgm"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "dmgm-serve address")
		in       = flag.String("in", "", "graph file (text or .bin); sent inline with every job")
		algo     = flag.String("algo", "both", "job mix: match | color | both")
		n        = flag.Int("n", 32, "jobs per algorithm")
		c        = flag.Int("c", 8, "concurrent submitters")
		ranks    = flag.Int("p", 4, "ranks per job")
		seed     = flag.Uint64("seed", 1, "base seed")
		distinct = flag.Int("distinct", 4, "distinct seeds cycled across jobs; n beyond it repeats requests and hits the cache")
		part     = flag.String("partition", "multilevel", "partitioner: multilevel | bfs | block | random")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-job client deadline")
		retries  = flag.Int("retry", 8, "max retries per job on 429/503 backpressure")
		wait     = flag.Duration("wait", 10*time.Second, "how long to wait for the server to come up")
		requireC = flag.Bool("require-cached", false, "fail unless the server reports cache hits > 0 after the run")
		jsonOut  = flag.Bool("json", false, "print the summary as JSON")
		upload   = flag.Bool("upload", false, "upload the graph once (chunked DMGB) and submit jobs by graph_ref")
		upChunk  = flag.Int64("upload-chunk", 0, "upload chunk size in bytes (0: server default)")
		upFault  = flag.Int("upload-fault", 0, "fail the first PUT of every n-th chunk in the transport, so it is retried (0 disables)")
		compare  = flag.Bool("compare-inline", false, "with -upload: fail unless a by-ref job answers byte-identically to the same job sent inline")
		restartC = flag.String("restart-check", "", "crash/restart conformance state file (docs/PROTOCOL.md §7): with -upload and no existing file, records graph_ref + result digests after the upload; when the file exists, verifies the recorded ref still resolves with byte-identical results and a 1-chunk re-upload, then exits")
		tenant   = flag.String("tenant", "", "tenant to account requests to (X-DMGM-Tenant header; empty = server default tenant)")
		reqTenR  = flag.Bool("require-tenant-rejects", false, "fail unless this tenant's server-side reject counter is non-zero after the run")
		forbTenR = flag.Bool("forbid-tenant-rejects", false, "fail if this tenant's server-side reject counter is non-zero after the run")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dmgm-load: -in graph file is required")
		os.Exit(2)
	}
	var algos []string
	switch *algo {
	case "match":
		algos = []string{service.AlgoMatch}
	case "color":
		algos = []string{service.AlgoColor}
	case "both":
		algos = []string{service.AlgoMatch, service.AlgoColor}
	default:
		fmt.Fprintf(os.Stderr, "dmgm-load: unknown -algo %q: want match | color | both\n", *algo)
		os.Exit(2)
	}
	if *distinct < 1 {
		*distinct = 1
	}

	// Load the graph once and ship it inline as text with every request —
	// the daemon needs no filesystem access and a .bin input works the same.
	g, err := graph.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: %v\n", err)
		os.Exit(1)
	}
	var gtext strings.Builder
	if err := graph.WriteText(&gtext, g); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: %v\n", err)
		os.Exit(1)
	}

	cl := client.New(*addr)
	cl.Tenant = *tenant
	ctx := context.Background()
	if err := cl.WaitReady(ctx, *wait); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: %v\n", err)
		os.Exit(1)
	}

	// -restart-check verify mode: the state file exists, so this is the
	// post-restart half of the crash/restart smoke. The recorded graph_ref
	// must resolve on the restarted daemon without any upload having
	// happened in this process — the graph comes off the daemon's disk.
	if *restartC != "" {
		if b, err := os.ReadFile(*restartC); err == nil {
			verifyRestartState(ctx, cl, g, b, *timeout)
			return
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: %v\n", err)
			os.Exit(1)
		}
		if !*upload {
			fmt.Fprintln(os.Stderr, "dmgm-load: -restart-check record mode requires -upload (the ref under test comes from the chunked upload)")
			os.Exit(2)
		}
	}

	// With -upload, ship the graph once through the chunked upload API and
	// reference it by fingerprint from every job.
	var graphRef string
	var upStats *client.UploadStats
	if *upload {
		uctx, cancel := context.WithTimeout(ctx, *timeout)
		if *upFault > 0 {
			cl.HTTP = &http.Client{Transport: &client.FaultTransport{Every: *upFault}}
		}
		ref, st, err := cl.UploadGraph(uctx, g, client.UploadOptions{ChunkBytes: *upChunk})
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-load: upload: %v\n", err)
			os.Exit(1)
		}
		graphRef, upStats = ref, st
		mbps := float64(st.BytesSent) / (1 << 20) / st.Elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "dmgm-load: uploaded %s: %d chunks (%d retried), %.1f MiB in %.2fs (%.1f MiB/s)%s\n",
			ref[:12], st.ChunksSent, st.ChunksRetried, float64(st.BytesSent)/(1<<20),
			st.Elapsed.Seconds(), mbps, map[bool]string{true: " [short-circuit]", false: ""}[st.ShortCircuit])
		if *compare {
			// One job each way, identical parameters, cache bypassed: the
			// result text must be byte-identical across the two graph paths.
			// Superstep >= n so every coloring round is a single superstep:
			// with smaller supersteps the speculative colors depend on message
			// arrival timing and two identical jobs can legitimately disagree.
			for _, a := range algos {
				base := service.Request{Algorithm: a, Ranks: *ranks, Partition: *part,
					Params: dmgm.Params{Seed: *seed, Superstep: g.NumVertices()}, NoCache: true}
				byRef, inline := base, base
				byRef.GraphRef = ref
				inline.Graph = gtext.String()
				cctx, cancel := context.WithTimeout(ctx, *timeout)
				r1, err1 := cl.Submit(cctx, &byRef)
				r2, err2 := cl.Submit(cctx, &inline)
				cancel()
				if err1 != nil || err2 != nil {
					fmt.Fprintf(os.Stderr, "dmgm-load: -compare-inline %s: by-ref %v, inline %v\n", a, err1, err2)
					os.Exit(1)
				}
				if r1.Result != r2.Result || r1.Fingerprint != r2.Fingerprint {
					fmt.Fprintf(os.Stderr, "dmgm-load: -compare-inline %s: uploaded-graph result differs from inline\n", a)
					os.Exit(1)
				}
			}
			fmt.Fprintln(os.Stderr, "dmgm-load: -compare-inline: by-ref results byte-identical to inline")
		}
		if *restartC != "" {
			recordRestartState(ctx, cl, g, *restartC, graphRef, algos, *ranks, *part, *seed, *timeout)
		}
	}

	// Build the full job list up front, then let -c submitters drain it.
	type jobSpec struct {
		algo string
		seed uint64
	}
	var specs []jobSpec
	for _, a := range algos {
		for i := 0; i < *n; i++ {
			specs = append(specs, jobSpec{algo: a, seed: *seed + uint64(i%*distinct)})
		}
	}

	// Each success keeps its job and trace ids alongside the latency, so the
	// summary can name the traces of the slowest requests — the ids to feed
	// GET /v1/jobs/{id}/trace or dmgm-trace -job while the server's trace
	// ring is still warm.
	type sample struct {
		Latency time.Duration
		Millis  float64 `json:"ms"`
		Algo    string  `json:"algorithm"`
		JobID   string  `json:"job_id"`
		TraceID string  `json:"trace_id"`
		Cached  bool    `json:"cached"`
	}
	var (
		mu       sync.Mutex
		samples  []sample
		cached   int
		failures []string
		attempts atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				spec := specs[i]
				req := &service.Request{
					Algorithm: spec.algo,
					Ranks:     *ranks,
					Partition: *part,
					Params:    dmgm.Params{Seed: spec.seed},
				}
				if graphRef != "" {
					req.GraphRef = graphRef
				} else {
					req.Graph = gtext.String()
				}
				jctx, cancel := context.WithTimeout(ctx, *timeout)
				t0 := time.Now()
				resp, att, err := cl.SubmitRetry(jctx, req, *retries)
				lat := time.Since(t0)
				cancel()
				attempts.Add(int64(att))
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s seed=%d: %v", spec.algo, spec.seed, err))
				} else {
					samples = append(samples, sample{
						Latency: lat,
						Millis:  float64(lat) / float64(time.Millisecond),
						Algo:    spec.algo,
						JobID:   resp.JobID,
						TraceID: resp.TraceID,
						Cached:  resp.Cached,
					})
					if resp.Cached {
						cached++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Server-side counters close the loop: client-observed "cached" answers
	// and the daemon's own hit counter should both be non-zero on repeats.
	var serverHits, serverRejects, partHits, storeHits, tenantRejects int64
	scrapeTenant := *tenant
	if scrapeTenant == "" {
		scrapeTenant = service.DefaultTenant
	}
	if m, err := cl.Metrics(ctx); err == nil {
		serverHits = m.Counters["service.cache_hits"]
		serverRejects = m.Counters["service.jobs_rejected"]
		partHits = m.Counters["service.partition_cache_hits"]
		storeHits = m.Counters["ingest.store_hits"]
		tenantRejects = m.Counters["service.tenant."+scrapeTenant+".rejected"]
	} else {
		fmt.Fprintf(os.Stderr, "dmgm-load: metrics scrape: %v\n", err)
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].Latency < samples[j].Latency })
	pct := func(p float64) time.Duration {
		if len(samples) == 0 {
			return 0
		}
		i := int(p * float64(len(samples)-1))
		return samples[i].Latency
	}
	// The p99 tail by name: the slowest ~1% of successful jobs (at least
	// one), slowest first, each with the trace id to pull its span tree.
	var slowest []sample
	if len(samples) > 0 {
		k := len(samples) / 100
		if k < 1 {
			k = 1
		}
		for i := len(samples) - 1; i >= len(samples)-k; i-- {
			slowest = append(slowest, samples[i])
		}
	}
	summary := struct {
		Jobs          int      `json:"jobs"`
		OK            int      `json:"ok"`
		Failed        int      `json:"failed"`
		Cached        int      `json:"cached"`
		ServerHits    int64    `json:"server_cache_hits"`
		ServerRejects int64    `json:"server_rejects"`
		Tenant        string   `json:"tenant,omitempty"`
		TenantRejects int64    `json:"tenant_rejects"`
		PartHits      int64    `json:"server_partition_cache_hits"`
		StoreHits     int64    `json:"server_store_hits"`
		Attempts      int64    `json:"attempts"`
		UploadChunks  int      `json:"upload_chunks,omitempty"`
		UploadRetried int      `json:"upload_chunks_retried,omitempty"`
		UploadBytes   int64    `json:"upload_bytes,omitempty"`
		UploadSeconds float64  `json:"upload_seconds,omitempty"`
		ShortCircuit  bool     `json:"upload_short_circuit,omitempty"`
		Seconds       float64  `json:"seconds"`
		JobsPerSec    float64  `json:"jobs_per_sec"`
		P50Millis     float64  `json:"p50_ms"`
		P90Millis     float64  `json:"p90_ms"`
		P99Millis     float64  `json:"p99_ms"`
		MaxMillis     float64  `json:"max_ms"`
		Slowest       []sample `json:"slowest,omitempty"`
	}{
		Jobs:          len(specs),
		OK:            len(samples),
		Failed:        len(failures),
		Cached:        cached,
		ServerHits:    serverHits,
		ServerRejects: serverRejects,
		Tenant:        scrapeTenant,
		TenantRejects: tenantRejects,
		PartHits:      partHits,
		StoreHits:     storeHits,
		Attempts:      attempts.Load(),
		Seconds:       elapsed.Seconds(),
		P50Millis:     float64(pct(0.50)) / float64(time.Millisecond),
		P90Millis:     float64(pct(0.90)) / float64(time.Millisecond),
		P99Millis:     float64(pct(0.99)) / float64(time.Millisecond),
		MaxMillis:     float64(pct(1.0)) / float64(time.Millisecond),
		Slowest:       slowest,
	}
	if elapsed > 0 {
		summary.JobsPerSec = float64(len(samples)) / elapsed.Seconds()
	}
	if upStats != nil {
		summary.UploadChunks = upStats.ChunksSent
		summary.UploadRetried = upStats.ChunksRetried
		summary.UploadBytes = upStats.BytesSent
		summary.UploadSeconds = upStats.Elapsed.Seconds()
		summary.ShortCircuit = upStats.ShortCircuit
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(summary) //nolint:errcheck // stdout
	} else {
		fmt.Printf("jobs %d  ok %d  failed %d  cached %d (server hits %d, rejects %d, partition hits %d, store hits %d)  attempts %d\n",
			summary.Jobs, summary.OK, summary.Failed, summary.Cached, serverHits, serverRejects, partHits, storeHits, summary.Attempts)
		fmt.Printf("tenant %s  rejects %d\n", scrapeTenant, tenantRejects)
		fmt.Printf("elapsed %.2fs  throughput %.1f jobs/s\n", summary.Seconds, summary.JobsPerSec)
		fmt.Printf("latency p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
			summary.P50Millis, summary.P90Millis, summary.P99Millis, summary.MaxMillis)
		for _, s := range slowest {
			fmt.Printf("slowest %s %.1fms  job %s  trace %s%s\n",
				s.Algo, s.Millis, s.JobID, s.TraceID, map[bool]string{true: "  (cached)", false: ""}[s.Cached])
		}
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "dmgm-load: failed: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	if *requireC && serverHits == 0 {
		fmt.Fprintln(os.Stderr, "dmgm-load: -require-cached: server reports zero cache hits")
		os.Exit(1)
	}
	if *reqTenR && tenantRejects == 0 {
		fmt.Fprintf(os.Stderr, "dmgm-load: -require-tenant-rejects: tenant %s saw zero rejects (expected backpressure)\n", scrapeTenant)
		os.Exit(1)
	}
	if *forbTenR && tenantRejects > 0 {
		fmt.Fprintf(os.Stderr, "dmgm-load: -forbid-tenant-rejects: tenant %s saw %d rejects (expected none)\n", scrapeTenant, tenantRejects)
		os.Exit(1)
	}
}

// restartState is the -restart-check handoff between the pre-kill and
// post-restart halves of the crash/restart smoke: the graph_ref the first
// daemon handed out, the deterministic job parameters, and the SHA-256 of
// each algorithm's result text.
type restartState struct {
	GraphRef  string `json:"graph_ref"`
	Ranks     int    `json:"ranks"`
	Partition string `json:"partition"`
	dmgm.Params
	Digests map[string]string `json:"result_sha256"`
}

// restartRequest shapes the deterministic by-ref job both halves run: cache
// bypassed, and Superstep >= n so coloring is timing-independent (same
// reasoning as -compare-inline).
func (st *restartState) request(algo string) *service.Request {
	return &service.Request{Algorithm: algo, GraphRef: st.GraphRef, Ranks: st.Ranks,
		Partition: st.Partition, Params: st.Params, NoCache: true}
}

func resultDigest(resp *service.Response) string {
	sum := sha256.Sum256([]byte(resp.Result))
	return hex.EncodeToString(sum[:])
}

// recordRestartState runs one deterministic job per algorithm against the
// just-uploaded ref and writes the state file the verify half will read
// after the daemon is killed and restarted.
func recordRestartState(ctx context.Context, cl *client.Client, g *graph.Graph,
	path, ref string, algos []string, ranks int, part string, seed uint64, timeout time.Duration) {
	st := restartState{GraphRef: ref, Ranks: ranks, Partition: part,
		Params: dmgm.Params{Seed: seed, Superstep: g.NumVertices()}, Digests: make(map[string]string)}
	for _, a := range algos {
		jctx, cancel := context.WithTimeout(ctx, timeout)
		resp, err := cl.Submit(jctx, st.request(a))
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check record %s: %v\n", a, err)
			os.Exit(1)
		}
		st.Digests[a] = resultDigest(resp)
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: recorded ref %s and %d result digest(s) to %s\n",
		ref[:12], len(st.Digests), path)
}

// verifyRestartState is the post-restart check: the recorded ref must
// resolve (off the daemon's store directory — nothing was uploaded in this
// process), every result must match its recorded digest byte for byte, and
// re-uploading the graph must short-circuit after a single chunk.
func verifyRestartState(ctx context.Context, cl *client.Client, g *graph.Graph,
	raw []byte, timeout time.Duration) {
	var st restartState
	if err := json.Unmarshal(raw, &st); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: bad state file: %v\n", err)
		os.Exit(1)
	}
	if st.GraphRef == "" || len(st.Digests) == 0 {
		fmt.Fprintln(os.Stderr, "dmgm-load: -restart-check: state file carries no ref or digests")
		os.Exit(1)
	}
	for a, want := range st.Digests {
		jctx, cancel := context.WithTimeout(ctx, timeout)
		resp, err := cl.Submit(jctx, st.request(a))
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: recorded graph_ref %s did not survive the restart (%s): %v\n",
				st.GraphRef[:12], a, err)
			os.Exit(1)
		}
		if got := resultDigest(resp); got != want {
			fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: %s result diverges across restart: digest %s, recorded %s\n",
				a, got[:12], want[:12])
			os.Exit(1)
		}
	}
	uctx, cancel := context.WithTimeout(ctx, timeout)
	ref, up, err := cl.UploadGraph(uctx, g, client.UploadOptions{})
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: re-upload: %v\n", err)
		os.Exit(1)
	}
	if ref != st.GraphRef || !up.ShortCircuit || up.ChunksSent != 1 {
		fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: re-upload moved payload: ref %s short_circuit=%v chunks=%d, want the recorded ref in a 1-chunk short circuit\n",
			ref[:12], up.ShortCircuit, up.ChunksSent)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dmgm-load: -restart-check: ref %s survived the restart — %d result(s) byte-identical, re-upload short-circuited after 1 chunk\n",
		st.GraphRef[:12], len(st.Digests))
}
