package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/dmgm"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/service/ingest"
)

// Config sizes one Server. The zero value is usable: every field has a
// production-sane default.
type Config struct {
	// QueueLen bounds the admission queue; a submission arriving with the
	// queue full is shed with 429 + Retry-After (default 32).
	QueueLen int
	// Workers is the number of jobs executed concurrently (default 2).
	// Each worker drives one mpi world of Request.Ranks goroutine ranks, so
	// the process runs up to Workers×Ranks rank goroutines at peak.
	Workers int
	// DefaultTimeout caps a job's queue wait plus run time; requests may
	// shorten it per job, never extend it (default 2 minutes).
	DefaultTimeout time.Duration
	// CacheEntries bounds the LRU result cache (default 128; negative
	// disables caching).
	CacheEntries int
	// MaxRanks bounds Request.Ranks (default 64).
	MaxRanks int
	// MaxBodyBytes bounds a request body, inline graph included
	// (default 256 MiB).
	MaxBodyBytes int64
	// AllowGraphPaths permits graph_path requests, which read daemon-local
	// files. Leave false for anything but a trusted-caller deployment.
	AllowGraphPaths bool
	// StoreBytes bounds the content-addressed graph store (default 512 MiB),
	// and is the size of the second budget the shares retained under
	// partition-cache entries are held to (partcache.go).
	StoreBytes int64
	// StoreDir, when set, persists every deposited graph's canonical DMGB
	// encoding under this directory (docs/PROTOCOL.md §7): refs survive both
	// memory eviction and daemon restarts, rehydrated lazily on first use.
	// Empty keeps the store memory-only, the pre-persistence behavior.
	StoreDir string
	// StoreDiskBytes bounds the spill directory; least recently used spill
	// files beyond it are deleted (default 4 GiB). Only meaningful with
	// StoreDir set.
	StoreDiskBytes int64
	// PartitionCacheEntries bounds the warm partition cache (default 64;
	// negative disables it).
	PartitionCacheEntries int
	// UploadTTL expires idle upload sessions (default 2 minutes).
	UploadTTL time.Duration
	// MaxUploadBytes bounds one upload session (default 1 GiB).
	MaxUploadBytes int64
	// Policies carries the per-tenant admission budgets (weights, rate
	// limits, queue/concurrency/upload bounds — docs/PROTOCOL.md §8). nil
	// applies the permissive default policy to every tenant: weight 1, no
	// rate limit, queue bound QueueLen. Replaceable at runtime with
	// SetPolicies.
	Policies *TenantPolicies
	// MaxTenants bounds the distinct tenant queues the scheduler tracks
	// (default 64). Callers beyond the bound share the default tenant's
	// queue and budgets, so an attacker inventing header values cannot grow
	// server state without bound.
	MaxTenants int
	// Observer collects service metrics and per-job spans; nil runs with
	// metrics disabled (every instrument is a nil no-op).
	Observer *obs.Observer

	// OTLPEndpoint, when set, wires a continuous OTLP/HTTP pipeline into the
	// daemon (docs/PROTOCOL.md §9): the metrics registry is pushed every
	// OTLPInterval and every finished job's span tree is exported on
	// completion. Stop drains the exporter before returning.
	OTLPEndpoint string
	// OTLPInterval paces the periodic metrics push (default 10s).
	OTLPInterval time.Duration
	// OTLPDrainTimeout bounds how long Stop waits for queued telemetry to
	// flush; batches still pending after it are counted dropped (default 5s).
	OTLPDrainTimeout time.Duration
	// RunID labels the daemon's own telemetry stream (the dmgm.run resource
	// attribute of the periodic metrics push). Jobs do not use it: each job's
	// spans ride its own trace id.
	RunID string
	// DisableTracing turns per-job span recording off entirely: no lifecycle
	// spans, no per-job runtime observers, no trace retention. Trace ids are
	// still minted/propagated so the access log and X-DMGM-Trace header keep
	// working. Results are byte-identical either way (asserted by the
	// conformance tests).
	DisableTracing bool
	// TraceSlowMillis is the tail-capture threshold: a job slower than this
	// (or ending in error) retains its full span tree for
	// GET /v1/jobs/{id}/trace. 0 retains every job; negative disables
	// retention. The default (zero value) retains every job — the ring is
	// bounded, so this is cheap and the friendliest debugging default.
	TraceSlowMillis int64
	// TraceRing bounds the retained-trace ring (default 256; negative
	// disables retention).
	TraceRing int
	// AccessLog, when set, receives one structured JSON line per job request:
	// trace id, tenant, status, queue wait, run time, cache disposition.
	AccessLog io.Writer
}

func (c *Config) fillDefaults() {
	if c.QueueLen == 0 {
		c.QueueLen = 32
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxRanks == 0 {
		c.MaxRanks = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.StoreBytes == 0 {
		c.StoreBytes = 512 << 20
	}
	if c.StoreDiskBytes == 0 {
		c.StoreDiskBytes = 4 << 30
	}
	if c.PartitionCacheEntries == 0 {
		c.PartitionCacheEntries = 64
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.OTLPInterval <= 0 {
		c.OTLPInterval = 10 * time.Second
	}
	if c.OTLPDrainTimeout <= 0 {
		c.OTLPDrainTimeout = 5 * time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
}

// Sizes with one value in use everywhere; constants, not Config fields.
const (
	// worldDeadline is the watchdog on pooled worlds — the backstop against
	// a wedged algorithm outliving every job deadline.
	worldDeadline = 10 * time.Minute
	// maxUploadSessions bounds concurrently open upload sessions across all
	// tenants.
	maxUploadSessions = 64
	// runtimeSpanCap is the per-rank span-ring capacity of each job's runtime
	// observer. A long job keeps the tail of its phase spans.
	runtimeSpanCap = 2048
)

// job is one admitted submission moving through its tenant's queue.
type job struct {
	tq   *tenantQueue
	req  *Request
	g    *graph.Graph
	fp   string
	key  string
	ctx  context.Context
	done chan struct{} // closed exactly once, after resp/rej are set

	// jt is the request's trace state, which also names the job (jobID,
	// tenant). The handler owns it until enqueue, the worker between dequeue
	// and close(done) — see trace.go.
	jt         *jobTrace
	enqueuedAt time.Time

	// The outcome: exactly one of resp and rej is set.
	resp *Response
	rej  *ingest.Refusal
}

// finish publishes the job's outcome and releases its waiter.
func (j *job) finish(resp *Response, rej *ingest.Refusal) {
	j.resp, j.rej = resp, rej
	close(j.done)
}

// Server is the dmgm job service: per-tenant admission queues dispatched by
// a weighted deficit-round-robin scheduler in front of a fixed worker pool,
// a World pool underneath, and an LRU result cache in front of everything.
// Create with NewServer, expose Handler over HTTP, call Start, and
// Drain+Stop on the way out. All exported methods are safe for concurrent
// use once NewServer returns.
type Server struct {
	cfg    Config
	pool   *worldPool
	cache  *resultCache
	store  *ingest.Store
	ingest *ingest.Manager
	parts  *partCache
	sched  *tenantSched

	stopOnce sync.Once
	pumpOnce sync.Once // pump shutdown + exporter drain, once
	draining atomic.Bool
	admitMu  sync.Mutex     // orders admissions against the drain flag flip
	workers  sync.WaitGroup // worker goroutines
	pending  sync.WaitGroup // admitted, unfinished jobs

	nextID   atomic.Int64
	inflight atomic.Int64 // jobs executing right now (/healthz)

	// Tracing pipeline (trace.go). exporter/traces/accessLog are nil when the
	// respective feature is off; every use is nil-safe.
	exporter   *obs.OTLPExporter
	traces     *traceRing
	accessLog  *accessLogger
	startNanos atomic.Int64  // Start time, the cumulative-metrics window start
	pumpStop   chan struct{} // closes to stop the periodic metrics push
	pumpDone   chan struct{}

	// Instruments (nil-safe no-ops without an observer). The per-job
	// counters and histograms that have a per-tenant twin (submitted,
	// rejected, completed, latency, queue wait, run time) live on the
	// tenantQueue, paired with their service-wide instrument.
	failed      *obs.Counter
	drainRejs   *obs.Counter
	timeouts    *obs.Counter
	hits        *obs.Counter
	misses      *obs.Counter
	coalesced   *obs.Counter
	partHits    *obs.Counter
	partMisses  *obs.Counter
	placeBuilds *obs.Counter
	idleWorlds  *obs.Gauge
	drainGauge  *obs.Gauge
}

// NewServer builds a server from cfg. Call Start before serving traffic.
// The only failure mode is an unusable StoreDir (unreadable, uncreatable);
// without one, NewServer always succeeds.
func NewServer(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	reg := cfg.Observer.Registry()
	s := &Server{
		cfg:   cfg,
		pool:  newWorldPool(worldDeadline, cfg.Workers*2, reg),
		cache: newResultCache(cfg.CacheEntries),
		store: ingest.NewStore(cfg.StoreBytes, reg),
		sched: newTenantSched(cfg.Policies, cfg.QueueLen, cfg.MaxTenants, reg),

		failed:      reg.Counter("service.jobs_failed"),
		drainRejs:   reg.Counter("service.jobs_rejected_draining"),
		timeouts:    reg.Counter("service.jobs_timeout"),
		hits:        reg.Counter("service.cache_hits"),
		misses:      reg.Counter("service.cache_misses"),
		coalesced:   reg.Counter("service.cache_coalesced"),
		partHits:    reg.Counter("service.partition_cache_hits"),
		partMisses:  reg.Counter("service.partition_cache_misses"),
		placeBuilds: reg.Counter("service.placement_builds"),
		idleWorlds:  reg.Gauge("service.pool_idle"),
		drainGauge:  reg.Gauge("service.draining"),

		traces:    newTraceRing(cfg.TraceRing),
		accessLog: newAccessLogger(cfg.AccessLog),
	}
	// Retained shares get a budget of their own, of the size the graphs they
	// are cut from are held under.
	s.parts = newPartCache(cfg.PartitionCacheEntries, s.store.Stats().MaxBytes, reg)
	reg.Gauge("service.queue_cap").Set(int64(cfg.QueueLen))
	if cfg.StoreDir != "" {
		// Enabled before any deposit can happen: the startup scan indexes
		// what a previous daemon run left behind, so old refs resolve and
		// re-uploads of spilled graphs short-circuit from the first request.
		if err := s.store.EnableSpill(ingest.SpillConfig{Dir: cfg.StoreDir, MaxBytes: cfg.StoreDiskBytes}); err != nil {
			return nil, fmt.Errorf("store dir %s: %w", cfg.StoreDir, err)
		}
	}
	s.ingest = ingest.NewManager(ingest.Config{
		TTL:         cfg.UploadTTL,
		MaxSessions: maxUploadSessions,
		MaxBytes:    cfg.MaxUploadBytes,
		Store:       s.store,
		// Uploads pass the same per-tenant admission as jobs: one rate
		// token per session open, counted against the tenant's upload cap.
		Admit:    s.admitUpload,
		Registry: reg,
	})
	return s, nil
}

// SetPolicies replaces the per-tenant admission policies at runtime — the
// dmgm-serve SIGHUP reload path. Existing queues are re-bound in place:
// queued jobs stay queued, token-bucket levels carry over clamped to the
// new burst. Safe to call concurrently with traffic; nil resets every
// tenant to the permissive default policy.
func (s *Server) SetPolicies(p *TenantPolicies) {
	s.sched.setPolicies(p)
}

// admitUpload gates one upload-session open against the caller's tenant
// budgets (docs/PROTOCOL.md §8): draining refuses with 503, the open
// consumes one rate token, and the session occupies one slot of the
// tenant's upload cap until it settles. The returned release func gives the
// slot back; ingest calls it exactly once when the session leaves the
// uploading state.
func (s *Server) admitUpload(r *http.Request) (func(), *ingest.Refusal) {
	tenant, ok := tenantFrom(r)
	if !ok {
		return nil, badTenant(r)
	}
	if s.draining.Load() {
		return nil, s.refuseDraining("uploads")
	}
	tq := s.sched.tenantFor(tenant)
	if secs, ok := s.sched.takeToken(tq); !ok {
		tq.upRejected.Inc()
		return nil, overRate(tenant, secs)
	}
	if !s.sched.addUpload(tq) {
		tq.upRejected.Inc()
		return nil, &ingest.Refusal{Status: http.StatusTooManyRequests, RetryAfter: retryAfterSeconds,
			Msg: fmt.Sprintf("tenant %q is at its %d-session upload cap: finish or abort one", tenant, tq.pol.MaxUploads)}
	}
	return func() { s.sched.dropUpload(tq) }, nil
}

// otlpServiceName is the service.name resource attribute of every span and
// metric the daemon exports.
const otlpServiceName = "dmgm-serve"

// Start launches the worker pool and, when an OTLP endpoint is configured,
// the continuous telemetry pipeline: a periodic metrics push plus span
// export on every job completion.
func (s *Server) Start() {
	s.startNanos.Store(time.Now().UnixNano())
	if s.cfg.OTLPEndpoint != "" {
		s.exporter = obs.NewOTLPExporter(s.cfg.OTLPEndpoint, obs.OTLPOptions{
			Identity: obs.OTLPIdentity{RunID: s.cfg.RunID, Service: otlpServiceName},
			Registry: s.cfg.Observer.Registry(),
		})
		s.pumpStop = make(chan struct{})
		s.pumpDone = make(chan struct{})
		go s.metricsPump()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
}

// metricsPump pushes the registry to the OTLP endpoint every OTLPInterval,
// with one final push on shutdown so the last window is never lost.
func (s *Server) metricsPump() {
	defer close(s.pumpDone)
	t := time.NewTicker(s.cfg.OTLPInterval)
	defer t.Stop()
	push := func() {
		s.refreshGauges()
		s.exporter.ExportMetrics(s.cfg.Observer.Registry().Snapshot(), s.startNanos.Load())
	}
	for {
		select {
		case <-s.pumpStop:
			push()
			return
		case <-t.C:
			push()
		}
	}
}

// Drain stops admitting new jobs (submissions answer 503, health answers
// draining) and waits for every admitted job — queued or running — to
// finish, or for ctx to expire. It does not stop the workers; call Stop
// afterwards.
func (s *Server) Drain(ctx context.Context) error {
	// The admission lock orders the flag flip after every in-flight
	// admission's pending.Add — Wait never races a late Add.
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	s.drainGauge.Set(1)
	done := make(chan struct{})
	go func() { s.pending.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Stop terminates the worker pool and drains the telemetry pipeline: the
// final metrics window is pushed and queued span batches get up to
// OTLPDrainTimeout to flush (batches still pending after it are counted
// dropped, never leaked — the obs.otlp_dropped counter reports them). Safe
// to call more than once; jobs still queued are abandoned (their waiters
// time out via job deadlines), so Drain first for a graceful exit.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { s.sched.stop() })
	s.workers.Wait()
	s.ingest.Stop()
	s.pumpOnce.Do(func() {
		if s.exporter == nil {
			return
		}
		close(s.pumpStop)
		<-s.pumpDone
		s.exporter.Close(s.cfg.OTLPDrainTimeout) //nolint:errcheck // drop accounting covers the timeout case
	})
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP surface:
//
//	POST   /v1/jobs                      submit a job, wait for its result
//	GET    /v1/jobs/{id}/trace           retained span tree of a slow/error job
//	POST   /v1/uploads                   open a chunked upload session
//	PUT    /v1/uploads/{id}/chunks/{n}   send one chunk (idempotent)
//	GET    /v1/uploads/{id}              session status (resume point)
//	POST   /v1/uploads/{id}/complete     finalize, obtain the graph_ref
//	DELETE /v1/uploads/{id}              abort a session
//	GET    /healthz                      liveness JSON (200 ok / 503 draining)
//	GET    /metrics                      the metrics registry (obs.MountLive)
//	GET    /snapshot                     obs.LiveSnapshot, metrics only (same)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.ingest.RegisterRoutes(mux)
	mux.HandleFunc("/healthz", s.handleHealth)
	obs.MountLive(mux, s.LiveSnapshot)
	return mux
}

// handleJobTrace serves GET /v1/jobs/{id}/trace from the retained-trace ring
// (docs/PROTOCOL.md §9). Only slow/error jobs are retained; everything else
// answers 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.traces.get(id)
	if !ok {
		ingest.Refusef(http.StatusNotFound,
			"no retained trace for job %q: only jobs over the slow threshold or ending in error are kept, bounded by the trace ring", id).Write(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t) //nolint:errcheck // response already committed
}

// LiveSnapshot adapts the service registry to the obs live-polling shape,
// so `dmgm-trace -watch` and the -http pipeline work against a daemon too.
func (s *Server) LiveSnapshot() *obs.LiveSnapshot {
	s.refreshGauges()
	return &obs.LiveSnapshot{
		CapturedUnixNanos: time.Now().UnixNano(),
		Metrics:           s.cfg.Observer.Registry().Snapshot(),
	}
}

// refreshGauges recomputes the one sampled gauge a scrape observes,
// service.pool_idle (the scheduler keeps service.queue_depth exact on every
// enqueue and dispatch).
func (s *Server) refreshGauges() {
	s.idleWorlds.Set(int64(s.pool.idle()))
}

// healthBody is the GET /healthz answer (docs/PROTOCOL.md §6): the drain
// state plus the load picture an orchestrator or operator triages from. The
// status code keeps the original contract — 200 while serving, 503 once
// draining — so probes that only look at the code are unaffected.
type healthBody struct {
	Status         string         `json:"status"` // "ok" | "draining"
	Workers        int            `json:"workers"`
	Inflight       int64          `json:"inflight"`
	QueueDepth     int            `json:"queue_depth"`
	Queues         map[string]int `json:"queues,omitempty"` // per-tenant queue depths
	IdleWorlds     int            `json:"idle_worlds"`
	TracesRetained int            `json:"traces_retained"`
	// Store snapshots both tiers of the graph store; the spill_* fields are
	// present only when a StoreDir is configured.
	Store ingest.StoreStats `json:"store"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := healthBody{
		Status:         "ok",
		Workers:        s.cfg.Workers,
		Inflight:       s.inflight.Load(),
		QueueDepth:     s.sched.totalQueued(),
		Queues:         s.sched.depths(),
		IdleWorlds:     s.pool.idle(),
		TracesRetained: s.traces.len(),
		Store:          s.store.Stats(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // response already committed
}

// retryAfterSeconds is the backpressure hint on queue-full 429 and
// draining 503 answers: queues turn over in job-latency units, so a short
// fixed hint keeps rejected clients closely packed behind the current burst
// without thundering back. Rate-limit 429s derive their hint from the
// tenant's own token bucket instead (tenantSched.takeToken).
const retryAfterSeconds = 1

// refuseDraining refuses new work ("jobs" or "uploads") because the server
// is shutting down. Like every non-200 answer a handler of the daemon gives —
// to a job submission from either goroutine, an upload admission, a trace
// fetch — it is an ingest.Refusal, written by its Write (the 405 for a wrong
// method on a known path and the 404 for a path that is none are the mux's
// own plain-text answers, before any handler runs); this one, badTenant and
// overRate are the refusals jobs and uploads share.
func (s *Server) refuseDraining(what string) *ingest.Refusal {
	s.drainRejs.Inc()
	return &ingest.Refusal{Status: http.StatusServiceUnavailable, RetryAfter: retryAfterSeconds, Msg: "draining: not accepting " + what}
}

func badTenant(r *http.Request) *ingest.Refusal {
	return ingest.Refusef(http.StatusBadRequest, "invalid %s header %q: want %s", TenantHeader, r.Header.Get(TenantHeader), tenantNameRe)
}

// overRate sheds a caller whose token bucket is empty; secs is when the
// bucket next grants a token.
func overRate(tenant string, secs int) *ingest.Refusal {
	return &ingest.Refusal{Status: http.StatusTooManyRequests, RetryAfter: secs,
		Msg: fmt.Sprintf("tenant %q over its rate limit: retry in %ds", tenant, secs)}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The trace identity exists before any decision: the caller's traceparent
	// is honored (or a trace id minted), the X-DMGM-Trace header goes out on
	// every answer including rejects, and every outcome logs one access line.
	jt := newJobTrace(r.Header.Get(TraceparentHeader), !s.cfg.DisableTracing)
	w.Header().Set(TraceHeader, jt.traceID)
	resp, rej := s.submit(w, r, jt)
	if rej != nil {
		rej.Write(w)
		s.finishTrace(jt, rej.Status, rej.Msg)
		return
	}
	resp.TraceID = jt.traceID
	// Serialization and the first write of a (possibly large) result body.
	jt.stage(spanRespond, func() int64 {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck // the header is already out; nothing to repair mid-stream
		return int64(len(resp.Result))
	})
	s.finishTrace(jt, http.StatusOK, "")
}

// submit takes one request through the handler-side stages in order — drain
// gate, tenancy, admit, resolve, cache lookup, enqueue — and then waits for
// the worker-side stages (work). It returns the answer or the reject of the
// first stage that refused.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, jt *jobTrace) (*Response, *ingest.Refusal) {
	if s.draining.Load() {
		return nil, s.refuseDraining("jobs")
	}
	tenant, ok := tenantFrom(r)
	if !ok {
		return nil, badTenant(r)
	}
	jt.tenant = tenant
	tq := s.sched.tenantFor(tenant)
	tq.submitted.Inc()

	var req Request
	var rej *ingest.Refusal
	jt.stage(spanAdmit, func() int64 {
		rej = s.admit(w, r, tq, tenant, &req)
		return 0
	})
	if rej != nil {
		return nil, rej
	}
	jt.algo, jt.ranks = req.Algorithm, req.Ranks

	// Resolve: inline parse, store lookup, or path load.
	var g *graph.Graph
	var fp string
	jt.stage(spanResolve, func() int64 {
		if g, fp, rej = s.loadGraph(&req, jt); rej != nil {
			return 0
		}
		return int64(g.NumVertices())
	})
	if rej != nil {
		return nil, rej
	}

	key := req.cacheKey(fp)
	jt.jobID = fmt.Sprintf("job-%d", s.nextID.Add(1))
	ctx, cancel := context.WithTimeout(r.Context(), req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	jt.cache = cacheBypass
	var lead *flight
	if !req.NoCache {
		resp, f, rej := s.lookup(ctx, key, jt)
		if resp != nil {
			resp.JobID, resp.Tenant, resp.Cached = jt.jobID, tenant, true
			return resp, nil
		}
		if rej != nil {
			return nil, rej
		}
		lead = f
		jt.cache = cacheMiss
	}
	// A bypassed lookup counts as a miss too: hits + misses is every request
	// that reached the cache stage.
	s.misses.Inc()

	j := &job{tq: tq, req: &req, g: g, fp: fp, key: key, ctx: ctx, done: make(chan struct{}), jt: jt}
	var resp *Response
	rej = s.enqueue(j)
	if rej == nil {
		<-j.done
		resp, rej = j.resp, j.rej
	}
	if lead != nil {
		s.cache.land(key, lead, resp)
	}
	return resp, rej
}

// lookup is the cache stage of a request that may use the cache. It answers
// from the cache (a hit), or from the run of an identical request already in
// flight (coalesced: counted a hit, answered like one), or returns the flight
// this request now leads. A follower waits under its own deadline and holds
// no queue slot; when its deadline passes first it is a 504 and a miss, and
// when its leader fails or times out it looks again, so it may lead the next
// flight itself.
func (s *Server) lookup(ctx context.Context, key string, jt *jobTrace) (*Response, *flight, *ingest.Refusal) {
	for {
		start := time.Now()
		resp, hit, f, lead := s.cache.lookup(key)
		if hit {
			s.hits.Inc()
			jt.cache = cacheHit
			jt.record(spanCacheHit, start, time.Since(start), 0, nil)
			return &resp, nil, nil
		}
		if lead {
			return nil, f, nil
		}
		s.coalesced.Inc()
		jt.cache = cacheJoined
		select {
		case <-f.done:
		case <-ctx.Done():
			s.misses.Inc()
			return nil, nil, s.timedOut()
		}
		if f.resp != nil {
			s.hits.Inc()
			jt.record(spanCoalesced, start, time.Since(start), 0, nil)
			resp := *f.resp
			return &resp, nil, nil
		}
	}
}

// admit is the admission stage. The rate bucket gates ingress before any
// request work — a tenant over its rate is shed before the body is even
// decoded, and the Retry-After hint is when its own bucket next grants a
// token. Then the body is read under the size bound, decoded and validated.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tq *tenantQueue, tenant string, req *Request) *ingest.Refusal {
	if secs, ok := s.sched.takeToken(tq); !ok {
		tq.rejRate.Inc()
		return overRate(tenant, secs)
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); bodyBufs.Put(buf) }()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = decodeRequest(buf.Bytes(), req)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return ingest.Refusef(http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte bound: upload the graph through /v1/uploads and submit it by graph_ref", tooBig.Limit)
		}
		return ingest.Refusef(http.StatusBadRequest, "decoding request: %v", err)
	}
	if msg := req.normalize(s.cfg.MaxRanks); msg != "" {
		return ingest.Refusef(http.StatusBadRequest, "%s", msg)
	}
	return nil
}

// enqueue hands an admitted job to its tenant's queue. From a successful
// enqueue to <-j.done the worker owns j.jt (see trace.go); the handler
// records nothing in between.
func (s *Server) enqueue(j *job) *ingest.Refusal {
	// Authoritative drain check: the one opening submit is a fast path, but
	// a drain beginning mid-request must still see either this job in pending
	// or this request rejected — never neither, for any tenant.
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		return s.refuseDraining("jobs")
	}
	s.pending.Add(1)
	s.admitMu.Unlock()
	j.enqueuedAt = time.Now()
	if !s.sched.enqueue(j.tq, j) {
		s.pending.Done()
		j.tq.rejQueue.Inc()
		return &ingest.Refusal{Status: http.StatusTooManyRequests, RetryAfter: retryAfterSeconds,
			Msg: fmt.Sprintf("tenant %q queue full (%d jobs queued): retry later", j.jt.tenant, j.tq.pol.MaxQueued)}
	}
	j.tq.admitted.Inc()
	return nil
}

// finishTrace closes the request's root span and settles its telemetry: the
// span tree is exported over OTLP, retained in the trace ring when the job
// was slow or failed, and summarized as one access-log line. Runs on the
// handler goroutine, after the worker's last jt write (<-j.done).
func (s *Server) finishTrace(jt *jobTrace, status int, errMsg string) {
	jt.tr.End(jt.root)
	total := time.Since(jt.start)
	retained := false
	if jt.tr != nil && jt.jobID != "" && s.shouldRetain(status, total) {
		s.traces.add(jt.snapshot(status, errMsg, total))
		retained = s.traces != nil
	}
	if e := s.exporter; e != nil && jt.tr != nil {
		for _, b := range jt.batches() {
			e.ExportSpansFor(b.spans, b.id)
		}
	}
	s.accessLog.log(&accessEntry{
		TimeUnixNano:    time.Now().UnixNano(),
		TraceID:         jt.traceID,
		JobID:           jt.jobID,
		Tenant:          jt.tenant,
		Algorithm:       jt.algo,
		Ranks:           jt.ranks,
		Status:          status,
		Error:           errMsg,
		Cache:           jt.cache,
		QueueWaitMillis: durMillis(jt.queueWait),
		RunMillis:       durMillis(jt.runDur),
		TotalMillis:     durMillis(total),
		TraceRetained:   retained,
	})
}

// shouldRetain decides tail-based capture: every error, plus anything over
// the slow threshold (0 = everything; negative disables retention).
func (s *Server) shouldRetain(status int, total time.Duration) bool {
	if s.cfg.TraceSlowMillis < 0 {
		return false
	}
	if status != http.StatusOK {
		return true
	}
	return total.Milliseconds() >= s.cfg.TraceSlowMillis
}

// loadGraph resolves the request's graph — inline, by reference, or
// daemon-local — returning the graph and its fingerprint, or the reject to
// answer with. A graph_ref rehydrated from the spill tier records a span
// under the request's resolve stage.
func (s *Server) loadGraph(req *Request, jt *jobTrace) (*graph.Graph, string, *ingest.Refusal) {
	fail := func(status int, err error) (*graph.Graph, string, *ingest.Refusal) {
		return nil, "", ingest.Refusef(status, "loading graph: %v", err)
	}
	switch {
	case req.Graph != "":
		// Inline graphs land in the store too, so the caller can switch to
		// graph_ref (the response fingerprint) and uploads of the same
		// content short-circuit; a repeated text is parsed once.
		g, fp, err := s.store.LoadText(req.Graph)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		return g, fp, nil
	case req.GraphRef != "":
		start := time.Now()
		g, rehydrated, ok := s.store.Resolve(req.GraphRef)
		if !ok {
			return fail(http.StatusNotFound,
				fmt.Errorf("unknown graph_ref %s (never uploaded, or evicted): upload the graph again", req.GraphRef))
		}
		if rehydrated {
			jt.record(spanRehydrate, start, time.Since(start), int64(g.NumVertices()), nil)
		}
		return g, req.GraphRef, nil
	default:
		if !s.cfg.AllowGraphPaths {
			return fail(http.StatusBadRequest,
				fmt.Errorf("graph_path is disabled on this server; send the graph inline or upload it"))
		}
		// Daemon-local files stream through the store: decoded at most once
		// per content version, shared across concurrent jobs.
		g, fp, err := s.store.LoadPath(req.GraphPath)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		return g, fp, nil
	}
}

// workerLoop pulls dispatched jobs until Stop. The scheduler charges the
// job's tenant a running slot on dispatch; the worker releases it when the
// job leaves the worker, finished or shed.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		j, tq, ok := s.sched.next()
		if !ok {
			return
		}
		j.finish(s.work(j))
		s.pending.Done()
		s.sched.release(tq)
	}
}

// execResult carries a finished run out of its goroutine, with the placement
// stage's timings the worker turns into spans (the run goroutine must never
// touch the jobTrace itself — on timeout the worker abandons it mid-flight).
type execResult struct {
	resp  *Response
	err   error
	place placeTiming
}

// placeTiming is when the placement stage resolved the partition and, on the
// job that cut shares to retain, when it built them.
type placeTiming struct {
	partCached bool
	partStart  time.Time
	partDur    time.Duration
	buildStart time.Time // zero unless this job built retained shares
	buildDur   time.Duration
	buildBytes int64
}

// timedOut is the outcome of a job whose deadline fired, queued or running.
func (s *Server) timedOut() *ingest.Refusal {
	s.timeouts.Inc()
	return ingest.Refusef(http.StatusGatewayTimeout, "job deadline exceeded")
}

// work takes one dispatched job through the worker-side stages in order —
// queue wait, pool acquire, run (partition inside), cache deposit — and
// returns its outcome for job.finish. The run happens on a pooled world
// under the job deadline: on timeout the job resolves immediately and the
// world is canceled, so its ranks unwind from their next wait or kernel
// check; once the abandoned run has returned, the world is reset and
// recycled like any other.
func (s *Server) work(j *job) (*Response, *ingest.Refusal) {
	jt := j.jt
	jt.queueWait = time.Since(j.enqueuedAt)
	jt.record(spanQueueWait, j.enqueuedAt, jt.queueWait, 0, j.tq.qwait)
	if j.ctx.Err() != nil {
		// Expired while queued: never ran, shed cheaply.
		return nil, s.timedOut()
	}
	start := time.Now()
	var w *mpi.World
	var err error
	jt.stage(spanPoolAcquire, func() int64 {
		w, err = s.pool.get(j.req.Ranks)
		return 0
	})
	if err != nil {
		s.failed.Inc()
		return nil, ingest.Refusef(http.StatusInternalServerError, "world: %v", err)
	}
	// The job's own runtime observer: per-rank span rings the algorithms
	// record into, isolated per job so a pooled world never mixes two jobs'
	// spans. A timeout abandons the observer with the run — its spans are
	// simply never collected.
	var runObs *obs.Observer
	if !s.cfg.DisableTracing {
		runObs = obs.NewObserver(j.req.Ranks, runtimeSpanCap)
		if err := w.SetObserver(runObs); err != nil {
			runObs = nil // not runnable-fresh; run untraced rather than fail
		}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	runStart := time.Now()
	resCh := make(chan execResult, 1)
	go func() {
		var r execResult
		var placement *dmgm.Placement
		placement, r.place, r.err = s.getPlacement(j)
		if r.err == nil {
			r.resp, r.err = s.runJob(w, j, placement)
		}
		resCh <- r
	}()
	var r execResult
	select {
	case r = <-resCh:
	case <-j.ctx.Done():
		jt.runDur = time.Since(runStart)
		jt.record(spanRunAbandon, runStart, jt.runDur, 0, nil)
		// Stop the ranks, and recycle the world once the abandoned run
		// returns. The abandoned run still holds the per-job observer; put
		// resets and detaches it with the world, and its spans are dropped
		// with it.
		w.Cancel()
		go func() {
			<-resCh
			s.pool.put(w)
		}()
		return nil, s.timedOut()
	}
	jt.runDur = time.Since(runStart)
	// Collect the run's per-rank spans before the world returns to the pool
	// (put detaches the observer).
	if runObs != nil {
		for rank := 0; rank < j.req.Ranks; rank++ {
			jt.runtime = append(jt.runtime, runObs.Tracer(rank).Spans()...)
		}
	}
	s.pool.put(w)
	elapsed := time.Since(start)
	partSpan := spanPartCompute
	if r.place.partCached {
		partSpan = spanPartCached
	}
	jt.record(partSpan, r.place.partStart, r.place.partDur, int64(j.req.Ranks), nil)
	if !r.place.buildStart.IsZero() {
		jt.record(spanPlaceBuild, r.place.buildStart, r.place.buildDur, r.place.buildBytes, nil)
	}
	jt.runSeq = jt.record(spanRun, runStart, jt.runDur, 0, j.tq.runh)
	var rej *ingest.Refusal
	if errors.As(r.err, &rej) {
		return nil, rej
	}
	if r.err != nil {
		s.failed.Inc()
		return nil, ingest.Refusef(http.StatusInternalServerError, "executing %s: %v", j.req.Algorithm, r.err)
	}
	r.resp.JobID = jt.jobID
	r.resp.ElapsedSeconds = elapsed.Seconds()
	jt.stage(spanDeposit, func() int64 {
		// The cached copy carries no tenant: a hit may serve any tenant,
		// which stamps its own id on its copy.
		s.cache.put(j.key, *r.resp)
		return int64(len(r.resp.Result))
	})
	r.resp.Tenant = jt.tenant
	j.tq.completed.Inc()
	j.tq.lat.Observe(elapsed)
	return r.resp, nil
}

// getPlacement resolves what the job runs on: its partition through the warm
// partition cache — a miss runs the requested partitioner, through the same
// partition.ByName the CLIs use, so service and CLI runs agree bit-for-bit,
// and warms the cache — and then the shares cut by it. A job that named its
// graph by reference (graph_ref, graph_path) has declared reuse: its shares
// are cut once under the cache entry and retained there for every later job
// on the key. An inline job re-parses its graph per job anyway; it runs on
// retained shares when a by-reference job left some, and otherwise cuts its
// own and retains nothing. The key covers the full derivation, and both
// partitions and shares are read-only downstream, so sharing one instance
// across concurrent jobs is safe. A refusal of more ranks than vertices is a 400.
func (s *Server) getPlacement(j *job) (*dmgm.Placement, placeTiming, error) {
	t := placeTiming{partStart: time.Now()}
	key := partitionKey(j.fp, j.req.Partition, j.req.Ranks, j.req.Seed)
	e, placement, hit := s.parts.get(key)
	t.partCached = hit
	if hit {
		s.partHits.Inc()
	} else {
		s.partMisses.Inc()
		partitioner, err := partition.ByName(j.req.Partition)
		if err != nil {
			return nil, t, err
		}
		p, err := partitioner(j.g, j.req.Ranks, partition.MultilevelOptions{Seed: j.req.Seed})
		if n := j.g.NumVertices(); errors.Is(err, partition.ErrPartsExceedVertices) {
			return nil, t, ingest.Refusef(http.StatusBadRequest, "ranks %d exceed the graph's %d vertices and partition %q cannot leave a rank empty: ask for at most %d ranks",
				j.req.Ranks, n, j.req.Partition, n)
		}
		if err != nil {
			return nil, t, err
		}
		e = s.parts.put(key, p)
	}
	t.partDur = time.Since(t.partStart)
	if placement != nil {
		return placement, t, nil
	}
	if j.req.Graph != "" {
		placement, err := dmgm.Place(j.g, e.part)
		return placement, t, err
	}
	e.build.Lock()
	defer e.build.Unlock()
	if _, placement, _ := s.parts.get(key); placement != nil {
		return placement, t, nil // another worker built it meanwhile
	}
	t.buildStart = time.Now()
	placement, err := dmgm.Place(j.g, e.part)
	if err != nil {
		return nil, t, err
	}
	s.placeBuilds.Inc()
	s.parts.retain(key, e, placement)
	t.buildDur, t.buildBytes = time.Since(t.buildStart), placement.Bytes()
	return placement, t, nil
}

// runJob executes the job on the given world and placement through
// dmgm.RunJob — the run → verify → serialize function the CLIs call too, so a
// service job and a CLI run with equal inputs produce byte-identical results
// (asserted by the conformance tests).
func (s *Server) runJob(w *mpi.World, j *job, placement *dmgm.Placement) (*Response, error) {
	res, err := dmgm.RunJob(w, j.g, placement, dmgm.Job{
		Algorithm: j.req.Algorithm,
		NoBundle:  j.req.NoBundle,
		Comm:      j.req.Comm,
		Superstep: j.req.Superstep,
		Distance2: j.req.Distance2,
		Seed:      j.req.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Response{
		Algorithm:   j.req.Algorithm,
		Ranks:       j.req.Ranks,
		Fingerprint: j.fp,
		Weight:      res.Weight,
		Cardinality: res.Cardinality,
		Colors:      res.Colors,
		Rounds:      res.Rounds,
		Conflicts:   res.Conflicts,
		Messages:    res.Messages,
		Bytes:       res.Bytes,
		Result:      res.Text,
	}, nil
}
