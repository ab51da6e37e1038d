package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// OTLPExporter ships encoded OTLP/JSON request bodies to an OTLP/HTTP
// collector from a background goroutine. The contract mirrors the rest of the
// subsystem: a nil exporter is a valid disabled exporter (every method is a
// nil-check no-op), and a live exporter can never block or fail the run —
// enqueueing is non-blocking (a full queue drops the batch and counts it),
// delivery errors are retried with exponential backoff honoring
// Retry-After/429/503 semantics and finally counted as drops, never surfaced
// as run errors. Memory is bounded by queueCap × batch size.
type OTLPExporter struct {
	endpoint string
	id       OTLPIdentity
	client   *http.Client
	queue    chan otlpBatch
	done     chan struct{}
	// mu guards closed vs. the channel close: enqueue holds the read side so
	// Close cannot close the queue between the closed check and the send.
	mu       sync.RWMutex
	closed   bool
	closeOne sync.Once

	maxRetries int
	sleep      func(time.Duration) // replaceable by tests

	// Outcome accounting. Items are spans or metric data points.
	dropped atomic.Int64 // items lost: full queue, exhausted retries, or non-retryable status
	retries atomic.Int64 // delivery attempts beyond the first

	// droppedCtr mirrors dropped into the run's registry (obs.otlp_dropped)
	// so drop accounting rides along every metrics export and trace sidecar;
	// exportedCtr counts items delivered (2xx) there (obs.otlp_exported).
	droppedCtr  *Counter
	exportedCtr *Counter
}

// otlpBatch is one pre-encoded HTTP request: body and target path, plus the
// item count it carries for the outcome accounting.
type otlpBatch struct {
	path  string
	body  []byte
	items int64
}

// Delivery constants: no caller ever needed another value.
const (
	otlpBatchSpans  = 512                    // spans per trace request
	otlpQueueCap    = 64                     // in-flight batches; a full queue drops and counts new ones, never blocks
	otlpBackoffBase = 250 * time.Millisecond // first retry delay; doubles per attempt
	otlpBackoffMax  = 5 * time.Second        // cap on that delay; a Retry-After header overrides both
	otlpHTTPTimeout = 10 * time.Second       // per POST
)

// OTLPOptions configures NewOTLPExporter. The zero value of every field
// selects a sane default.
type OTLPOptions struct {
	// Identity pins the resource attributes and trace identity.
	Identity OTLPIdentity
	// Registry, when set, receives the obs.otlp_dropped / obs.otlp_exported
	// counters.
	Registry *Registry
	// MaxRetries bounds delivery attempts per batch (default 4 retries).
	MaxRetries int
}

// NewOTLPExporter starts the background delivery goroutine for the given
// OTLP/HTTP base endpoint (e.g. http://localhost:4318 — the standard
// /v1/traces and /v1/metrics paths are appended). Returns nil — the disabled
// exporter — when endpoint is empty.
func NewOTLPExporter(endpoint string, opt OTLPOptions) *OTLPExporter {
	if endpoint == "" {
		return nil
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = 4
	}
	e := &OTLPExporter{
		endpoint:    strings.TrimRight(endpoint, "/"),
		id:          opt.Identity,
		client:      &http.Client{Timeout: otlpHTTPTimeout},
		queue:       make(chan otlpBatch, otlpQueueCap),
		done:        make(chan struct{}),
		maxRetries:  opt.MaxRetries,
		sleep:       time.Sleep,
		droppedCtr:  opt.Registry.Counter("obs.otlp_dropped"),
		exportedCtr: opt.Registry.Counter("obs.otlp_exported"),
	}
	go e.run()
	return e
}

// run is the delivery goroutine: it drains the queue until Close.
func (e *OTLPExporter) run() {
	defer close(e.done)
	for b := range e.queue {
		e.deliver(b)
	}
}

// ExportSpans is ExportSpansFor under the exporter's own identity. Safe on a
// nil exporter.
func (e *OTLPExporter) ExportSpans(spans []Span) {
	if e != nil {
		e.ExportSpansFor(spans, e.id)
	}
}

// ExportSpansFor encodes and enqueues the given spans, split into bounded
// per-request batches, under an explicit identity — the serving daemon runs
// one long-lived exporter but gives every job its own trace id and run id, so
// the identity travels with the spans rather than with the exporter. Safe on
// a nil exporter.
func (e *OTLPExporter) ExportSpansFor(spans []Span, id OTLPIdentity) {
	if e == nil {
		return
	}
	for lo := 0; lo < len(spans); lo += otlpBatchSpans {
		chunk := spans[lo:min(lo+otlpBatchSpans, len(spans))]
		e.enqueue(otlpTracesPath, EncodeOTLPSpans(chunk, id), int64(len(chunk)))
	}
}

// ExportMetrics encodes and enqueues one registry snapshot. startNanos marks
// the start of the cumulative window (0 = unknown). Safe on a nil exporter.
func (e *OTLPExporter) ExportMetrics(s *MetricsSnapshot, startNanos int64) {
	if e == nil || s == nil {
		return
	}
	req := EncodeOTLPMetrics(s, e.id, startNanos, wallNow())
	if items := int64(req.DataPoints()); items > 0 {
		e.enqueue(otlpMetricsPath, req, items)
	}
}

// ExportObserver ships the observer's spans (per local rank, plus the
// driver's) and its registry snapshot. Safe on nil exporter or observer.
func (e *OTLPExporter) ExportObserver(o *Observer, localRanks []int) {
	if e == nil || o == nil {
		return
	}
	var startNanos int64
	for _, r := range localRanks {
		spans := o.Tracer(r).Spans()
		if len(spans) > 0 && (startNanos == 0 || spans[0].Start < startNanos) {
			startNanos = spans[0].Start
		}
		e.ExportSpans(spans)
	}
	e.ExportSpans(o.Driver().Spans())
	e.ExportMetrics(o.Registry().Snapshot(), startNanos)
}

// enqueue encodes one request and hands it to the delivery goroutine without
// ever blocking: a full queue (slow or unreachable collector) drops the batch
// and counts its items, as does an exporter already closed.
func (e *OTLPExporter) enqueue(path string, req any, items int64) {
	body, err := json.Marshal(req)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err != nil || e.closed {
		e.drop(items)
		return
	}
	select {
	case e.queue <- otlpBatch{path: path, body: body, items: items}:
	default:
		e.drop(items)
	}
}

func (e *OTLPExporter) drop(items int64) {
	e.dropped.Add(items)
	e.droppedCtr.Add(items)
}

// deliver POSTs one batch, retrying transient failures with exponential
// backoff. 429/503 Retry-After is honored; other 4xx statuses are permanent
// and drop immediately.
func (e *OTLPExporter) deliver(b otlpBatch) {
	delay := otlpBackoffBase
	for attempt := 0; ; attempt++ {
		resp, err := e.client.Post(e.endpoint+b.path, "application/json", bytes.NewReader(b.body))
		var status int
		var retryAfter time.Duration
		if err == nil {
			status = resp.StatusCode
			retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
			resp.Body.Close()
			if status >= 200 && status < 300 {
				e.exportedCtr.Add(b.items)
				return
			}
			if !retryableStatus(status) {
				e.drop(b.items)
				return
			}
		}
		if attempt >= e.maxRetries {
			e.drop(b.items)
			return
		}
		e.retries.Add(1)
		wait := delay
		if retryAfter > 0 {
			wait = retryAfter // the collector's explicit delay beats our backoff cap
		}
		e.sleep(wait)
		delay = min(2*delay, otlpBackoffMax)
	}
}

// retryableStatus reports whether the collector's answer is transient:
// timeout, throttling, or a 5xx burst.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests:
		return true
	}
	return status >= 500
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header
// (the HTTP-date form is not worth a clock dependency here).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Close stops accepting batches, waits up to timeout for the queue to drain,
// and returns an error when the deadline passed with batches still pending.
// Safe on a nil exporter and safe to call twice.
func (e *OTLPExporter) Close(timeout time.Duration) error {
	if e == nil {
		return nil
	}
	e.closeOne.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.queue)
		e.mu.Unlock()
	})
	select {
	case <-e.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("obs: otlp exporter still draining after %v (pending batches dropped)", timeout)
	}
}

// Dropped reports items lost to a full queue, exhausted retries, or a
// permanent collector error (0 on nil).
func (e *OTLPExporter) Dropped() int64 {
	if e == nil {
		return 0
	}
	return e.dropped.Load()
}
