package service

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// Request-scoped tracing: every job carries a W3C trace id (accepted from the
// caller's `traceparent` header or minted) and records a span tree over its
// service lifecycle — admit → resolve → queue wait → pool acquire →
// partition → run → cache deposit → respond — plus the runtime's per-rank
// phase spans, all under one trace id. The tree is exported over OTLP on job
// completion, retained in a bounded ring for slow/error jobs (served by
// GET /v1/jobs/{id}/trace), and summarized as one access-log line.
//
// Concurrency: a jobTrace's tracer is the single-goroutine obs.Tracer, but a
// job is touched by two goroutines — the submit handler and a worker. The
// accesses are strictly sequenced, never concurrent: the handler records
// until sched.enqueue (whose mutex publishes the state to the worker), the
// worker records between dequeue and close(j.done) (which publishes back),
// and the handler resumes only after <-j.done. The timeout path never lets
// the abandoned run goroutine touch the jobTrace: the run goroutine writes
// only its own per-job runtime observer and the partition measurements it
// hands over through the result channel, which the worker reads only on the
// non-abandoned path.

// TraceparentHeader is the inbound W3C trace-context header: a valid value
// continues the caller's trace, anything else mints a fresh one.
const TraceparentHeader = "Traceparent"

// TraceHeader is the response header echoing the request's trace id on every
// answer (success, reject, or error) — the handle for the access log,
// GET /v1/jobs/{id}/trace, and an OTLP backend query.
const TraceHeader = "X-DMGM-Trace"

// Span names of the service lifecycle (static strings, per the tracer
// contract). The runtime's phase names (match.outer, color.round, ...) appear
// alongside these in a complete trace.
const (
	spanJob         = "serve.job"
	spanAdmit       = "serve.admit"
	spanResolve     = "serve.resolve"
	spanRehydrate   = "serve.partition.rehydrate" // graph_ref served from the disk spill tier
	spanCacheHit    = "serve.cache.hit"
	spanCoalesced   = "serve.cache.coalesced" // a follower's wait on an identical request's run
	spanQueueWait   = "serve.queue_wait"
	spanPoolAcquire = "serve.pool_acquire"
	spanPartCached  = "serve.partition.cached"
	spanPartCompute = "serve.partition.compute"
	spanPlaceBuild  = "serve.placement.build" // shares cut once, retained for later by-reference jobs
	spanRun         = "serve.run"
	spanRunAbandon  = "serve.run.abandoned"
	spanDeposit     = "serve.cache_deposit"
	spanRespond     = "serve.respond"
)

// Cache dispositions reported in traces and access-log lines.
const (
	cacheHit    = "hit"
	cacheMiss   = "miss"
	cacheBypass = "bypass"    // no_cache request
	cacheJoined = "coalesced" // waited on an identical request's run (answered from it, or a 504)
	cacheNone   = ""          // rejected before the cache was consulted
)

// jobTraceSpanCap bounds one job's service-lifecycle spans. The lifecycle is
// a dozen spans; the headroom is for future phases.
const jobTraceSpanCap = 64

// jobTrace is the per-request tracing state and the lifecycle's one stage
// recorder (stage, record). With tracing disabled the tracer is nil — every
// obs.Tracer method is a nil-check no-op — so the request path reads the same
// with tracing off and only the identity and summary fields are live.
type jobTrace struct {
	traceID    string // 32-hex W3C trace id (accepted or minted)
	parentSpan string // 16-hex span id of the caller's enclosing span, or ""

	tr   *obs.Tracer // service lifecycle spans, rank = obs.DriverRank
	root uint64      // token of the open serve.job span

	// runSeq is the serve.run span's token; the runtime's per-rank spans are
	// exported parented under it.
	runSeq uint64
	// runtime holds the job's per-rank phase spans, collected by the worker
	// after a successful run.
	runtime []obs.Span

	// Summary fields for the access log and the retained trace.
	jobID     string
	tenant    string
	algo      string
	ranks     int
	start     time.Time
	queueWait time.Duration
	runDur    time.Duration
	cache     string
}

// newJobTrace mints the per-request trace identity. traceparent is the raw
// request header ("" = none). When tracing is disabled the tracer stays nil
// and only the identity fields are live (the access log still wants them).
func newJobTrace(traceparent string, enabled bool) *jobTrace {
	jt := &jobTrace{start: time.Now(), cache: cacheNone}
	if tid, sid, ok := obs.ParseTraceparent(traceparent); ok {
		jt.traceID, jt.parentSpan = tid, sid
	} else {
		jt.traceID = obs.NewTraceID()
	}
	if enabled {
		jt.tr = obs.NewTracer(obs.DriverRank, jobTraceSpanCap)
		jt.root = jt.tr.Begin(spanJob)
	}
	return jt
}

// counters and histograms are a global instrument and its per-tenant twins,
// fed by one call so the two can never drift apart.
type (
	counters   []*obs.Counter
	histograms []*obs.Histogram
)

func (cs counters) Inc() {
	for _, c := range cs {
		c.Inc()
	}
}

func (hs histograms) Observe(d time.Duration) {
	for _, h := range hs {
		h.Observe(d.Milliseconds())
	}
}

// stage runs fn as one named lifecycle stage: its span opens under serve.job
// before fn and closes on every exit of fn with the n fn reports. The stage
// table in DESIGN.md §9 lists every stage with its span and instruments.
func (jt *jobTrace) stage(name string, fn func() (n int64)) {
	tok := jt.tr.BeginUnder(name, jt.root)
	var n int64
	defer func() { jt.tr.EndN(tok, n) }()
	n = fn()
}

// record files a stage its caller timed — a wait, or work measured on the
// run goroutine and handed over — as a retroactive span under serve.job, and
// feeds the stage's histograms (nil for stages without one). It returns the
// span's token so further spans can parent under it.
func (jt *jobTrace) record(name string, start time.Time, dur time.Duration, n int64, hs histograms) uint64 {
	hs.Observe(dur)
	return jt.tr.ObserveSpan(name, start.UnixNano(), dur.Nanoseconds(), n, jt.root)
}

// spanBatch is one set of a job's spans with the OTLP identity it is exported
// and retained under.
type spanBatch struct {
	spans []obs.Span
	id    obs.OTLPIdentity
}

// batches returns the job's spans grouped by identity: the job id seeds
// deterministic span ids, the W3C trace id pins the trace, and the batch's
// roots are parented under the caller's span for the service spans, under
// the serve.run span for the runtime's per-rank spans.
func (jt *jobTrace) batches() []spanBatch {
	id := obs.OTLPIdentity{
		RunID:         jt.jobID,
		Service:       otlpServiceName,
		WorldSize:     jt.ranks,
		TraceIDHex:    jt.traceID,
		ParentSpanHex: jt.parentSpan,
	}
	out := []spanBatch{{jt.tr.Spans(), id}}
	if len(jt.runtime) > 0 {
		id.ParentSpanHex = id.SpanID(obs.DriverRank, jt.runSeq)
		out = append(out, spanBatch{jt.runtime, id})
	}
	return out
}

// TraceSpan is one span of a retained job trace, the JSON shape served by
// GET /v1/jobs/{id}/trace (docs/PROTOCOL.md §9). Ids match the OTLP export
// of the same job, so a retained trace cross-references a collector's view.
type TraceSpan struct {
	SpanID        string `json:"span_id"`
	ParentSpanID  string `json:"parent_span_id,omitempty"`
	Name          string `json:"name"`
	Rank          int    `json:"rank"` // -1 = service/driver
	StartUnixNano int64  `json:"start_unix_nano"`
	DurNanos      int64  `json:"dur_nanos"`
	N             int64  `json:"n,omitempty"`
	Msgs          int64  `json:"msgs,omitempty"`
	Bytes         int64  `json:"bytes,omitempty"`
	Detail        bool   `json:"detail,omitempty"`
}

// JobTrace is a retained job's span tree plus its request summary — the body
// of GET /v1/jobs/{id}/trace.
type JobTrace struct {
	JobID           string      `json:"job_id"`
	TraceID         string      `json:"trace_id"`
	Tenant          string      `json:"tenant"`
	Algorithm       string      `json:"algorithm,omitempty"`
	Ranks           int         `json:"ranks,omitempty"`
	Status          int         `json:"status"`
	Error           string      `json:"error,omitempty"`
	Cache           string      `json:"cache,omitempty"`
	QueueWaitMillis float64     `json:"queue_wait_ms"`
	RunMillis       float64     `json:"run_ms"`
	TotalMillis     float64     `json:"total_ms"`
	Spans           []TraceSpan `json:"spans"`
}

// snapshot freezes the jobTrace into its retained/served form. Call only
// after the root span is closed (request finished).
func (jt *jobTrace) snapshot(status int, errMsg string, total time.Duration) *JobTrace {
	out := &JobTrace{
		JobID:           jt.jobID,
		TraceID:         jt.traceID,
		Tenant:          jt.tenant,
		Algorithm:       jt.algo,
		Ranks:           jt.ranks,
		Status:          status,
		Error:           errMsg,
		Cache:           jt.cache,
		QueueWaitMillis: durMillis(jt.queueWait),
		RunMillis:       durMillis(jt.runDur),
		TotalMillis:     durMillis(total),
	}
	for _, b := range jt.batches() {
		for _, s := range b.spans {
			out.Spans = append(out.Spans, traceSpanOf(s, b.id))
		}
	}
	return out
}

func traceSpanOf(s obs.Span, id obs.OTLPIdentity) TraceSpan {
	parent := id.ParentSpanHex
	if s.Parent != 0 {
		parent = id.SpanID(s.Rank, s.Parent)
	}
	return TraceSpan{
		SpanID:        id.SpanID(s.Rank, s.Seq),
		ParentSpanID:  parent,
		Name:          s.Name,
		Rank:          s.Rank,
		StartUnixNano: s.Start,
		DurNanos:      s.Dur,
		N:             s.N,
		Msgs:          s.Msgs,
		Bytes:         s.Bytes,
		Detail:        s.Detail,
	}
}

func durMillis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traceRing retains the most recent slow/error job traces, bounded and
// indexed by job id. Safe for concurrent use.
type traceRing struct {
	mu   sync.Mutex
	cap  int
	fifo []string // job ids, oldest first
	byID map[string]*JobTrace
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		return nil // retention disabled
	}
	return &traceRing{cap: capacity, byID: make(map[string]*JobTrace, capacity)}
}

// add retains one trace, evicting the oldest beyond capacity. Nil-safe.
func (r *traceRing) add(t *JobTrace) {
	if r == nil || t == nil || t.JobID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[t.JobID]; !dup {
		if len(r.fifo) == r.cap {
			delete(r.byID, r.fifo[0])
			copy(r.fifo, r.fifo[1:])
			r.fifo = r.fifo[:len(r.fifo)-1]
		}
		r.fifo = append(r.fifo, t.JobID)
	}
	r.byID[t.JobID] = t
}

// get looks a retained trace up by job id. Nil-safe.
func (r *traceRing) get(jobID string) (*JobTrace, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[jobID]
	return t, ok
}

// len reports the retained-trace count. Nil-safe.
func (r *traceRing) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fifo)
}

// accessEntry is one structured access-log line (JSON, one object per line):
// the request's identity, outcome, and time breakdown — enough to find the
// slow tail and jump to its trace without a collector.
type accessEntry struct {
	TimeUnixNano    int64   `json:"ts_unix_nano"`
	TraceID         string  `json:"trace_id"`
	JobID           string  `json:"job_id,omitempty"`
	Tenant          string  `json:"tenant,omitempty"`
	Algorithm       string  `json:"algorithm,omitempty"`
	Ranks           int     `json:"ranks,omitempty"`
	Status          int     `json:"status"`
	Error           string  `json:"error,omitempty"`
	Cache           string  `json:"cache,omitempty"`
	QueueWaitMillis float64 `json:"queue_wait_ms"`
	RunMillis       float64 `json:"run_ms"`
	TotalMillis     float64 `json:"total_ms"`
	TraceRetained   bool    `json:"trace_retained,omitempty"`
}

// accessLogger serializes access-log lines onto one writer. A nil logger
// discards.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w}
}

func (l *accessLogger) log(e *accessEntry) {
	if l == nil {
		return
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.w.Write(line) //nolint:errcheck // best-effort log sink
	l.mu.Unlock()
}
