// Package client is the Go client of the dmgm job service: typed
// submission against the HTTP surface of internal/service (specified in
// docs/PROTOCOL.md §6), with backpressure-aware retries that honor the
// server's Retry-After hints. cmd/dmgm-load drives a daemon through this
// package; in-module code embedding the daemon can use it against an
// httptest server just the same.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// APIError is a non-200 service answer.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backpressure hint (0 if absent). Set on
	// 429 (queue full) and 503 (draining) answers.
	RetryAfter time.Duration
	// TraceID is the request's trace id from the X-DMGM-Trace answer header
	// (docs/PROTOCOL.md §9) — quote it when reporting a failure so the
	// operator can pull the job's span tree.
	TraceID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Retryable reports whether the error is pure backpressure — the request
// was fine, the server was momentarily full.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client talks to one dmgm-serve daemon.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP is the underlying client; nil uses a default with no timeout
	// (job deadlines are enforced per call through the context).
	HTTP *http.Client
	// Tenant, when non-empty, is sent as the X-DMGM-Tenant header on every
	// job submission and upload call, accounting the work to that tenant's
	// quotas (docs/PROTOCOL.md §8). Empty means the server's default tenant.
	Tenant string
	// Traceparent, when non-empty, is sent as the W3C traceparent header on
	// every call, joining the job (or the upload session) to the caller's
	// own trace (docs/PROTOCOL.md §9). Empty lets the server mint a fresh
	// trace id; either way Response.TraceID reports the id the job ran under.
	Traceparent string
}

// New builds a client for the given base URL (a bare host:port is
// completed to http://).
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// jsonBody is the header of a call whose body is JSON.
var jsonBody = http.Header{"Content-Type": {"application/json"}}

// do performs one API call: build the request (body nil = none) with the
// call's own header lines, stamp the tenant and traceparent headers, send
// it, turn any answer outside 2xx into an *APIError, and decode a JSON answer
// into out (nil discards it). Every typed method of the client is this plus
// its own path and types.
func (c *Client) do(ctx context.Context, method, path string, body []byte, header http.Header, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range header {
		hreq.Header[k] = v
	}
	if c.Tenant != "" {
		hreq.Header.Set(service.TenantHeader, c.Tenant)
	}
	if c.Traceparent != "" {
		hreq.Header.Set(service.TraceparentHeader, c.Traceparent)
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode < 200 || hresp.StatusCode > 299 {
		return decodeError(hresp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(hresp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s %s answer: %w", method, path, err)
	}
	return nil
}

// Submit posts one job and waits for its result. A non-200 answer returns
// an *APIError; transport failures return their underlying error.
func (c *Client) Submit(ctx context.Context, req *service.Request) (*service.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp service.Response
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", body, jsonBody, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitRetry is Submit plus cooperative backpressure: on a retryable
// answer (429 queue full, 503 draining) it sleeps the server's Retry-After
// hint — or a one-second default — and tries again, up to maxRetries
// retries or the context's deadline. It returns the attempt count alongside
// the result, so load generators can report shed rates.
func (c *Client) SubmitRetry(ctx context.Context, req *service.Request, maxRetries int) (resp *service.Response, attempts int, err error) {
	for {
		attempts++
		resp, err = c.Submit(ctx, req)
		apiErr, isAPI := err.(*APIError)
		if err == nil || !isAPI || !apiErr.Retryable() || attempts > maxRetries {
			return resp, attempts, err
		}
		delay := apiErr.RetryAfter
		if delay <= 0 {
			delay = time.Second
		}
		select {
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// Health polls /healthz; nil means the server is up and admitting jobs.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, nil)
}

// WaitReady polls Health until it succeeds or the deadline passes — for
// drivers that just started the daemon.
func (c *Client) WaitReady(ctx context.Context, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service at %s not ready after %v: %w", c.Base, deadline, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// JobTrace fetches the retained span tree of a finished job from
// GET /v1/jobs/{id}/trace (docs/PROTOCOL.md §9). Only slow and failed jobs
// are retained (per the server's -trace-slow-ms policy) and the ring is
// bounded, so a 404 means "not retained", not "never ran".
func (c *Client) JobTrace(ctx context.Context, jobID string) (*service.JobTrace, error) {
	var jt service.JobTrace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/trace", nil, nil, &jt); err != nil {
		return nil, err
	}
	return &jt, nil
}

// Metrics scrapes /metrics into a registry snapshot — how dmgm-load reads
// the server-side cache hit and shed counters after a run.
func (c *Client) Metrics(ctx context.Context) (*obs.MetricsSnapshot, error) {
	var s obs.MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeError turns a non-200 answer into an *APIError, tolerating
// non-JSON bodies (proxies, http.Error plain text).
func decodeError(resp *http.Response) error {
	out := &APIError{
		Status:  resp.StatusCode,
		TraceID: resp.Header.Get(service.TraceHeader),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		out.Message = eb.Error
	} else {
		out.Message = strings.TrimSpace(string(body))
	}
	return out
}
