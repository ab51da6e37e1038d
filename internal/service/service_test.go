package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// testGraph is a small deterministic graph shipped inline with test jobs.
func testGraph(t *testing.T) (*graph.Graph, string) {
	t.Helper()
	g, err := gen.ErdosRenyi(200, 600, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteText(&sb, g); err != nil {
		t.Fatal(err)
	}
	return g, sb.String()
}

// startServer wires a server into an httptest listener. start=false leaves
// the worker pool idle, so admitted jobs sit in the queue — how the tests
// hold the queue full deterministically.
func startServer(t *testing.T, cfg service.Config, start bool) (*service.Server, *client.Client) {
	t.Helper()
	if cfg.Observer == nil {
		cfg.Observer = obs.NewObserver(0, 0)
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		srv.Start()
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Stop()
	})
	return srv, client.New(ts.URL)
}

// waitMetric polls /metrics until the counter or gauge reaches want.
func waitMetric(t *testing.T, cl *client.Client, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := cl.Metrics(context.Background())
		if err == nil {
			if v, ok := m.Gauges[name]; ok && v >= want {
				return
			}
			if v, ok := m.Counters[name]; ok && v >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{QueueLen: 1, Workers: 1}, false)

	// With no workers running, the first job parks in the queue and its
	// submitter blocks; the queue (capacity 1) is now full.
	firstDone := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext})
		firstDone <- err
	}()
	waitMetric(t, cl, "service.queue_depth", 1)

	_, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Seed: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("overflow submit: %v, want *client.APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", apiErr.Status)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("429 carried no Retry-After hint")
	}
	if !apiErr.Retryable() {
		t.Fatal("429 not classified retryable")
	}

	// Start the workers: the parked job must complete normally.
	srv.Start()
	if err := <-firstDone; err != nil {
		t.Fatalf("queued job failed after workers started: %v", err)
	}
}

func TestJobDeadlineExpiresQueued(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, false)

	done := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), &service.Request{
			Algorithm: service.AlgoMatch, Graph: gtext, TimeoutMillis: 30,
		})
		done <- err
	}()
	waitMetric(t, cl, "service.queue_depth", 1)
	time.Sleep(60 * time.Millisecond) // let the job deadline fire while queued
	srv.Start()

	err := <-done
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("expired job: %v, want *client.APIError", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", apiErr.Status)
	}
	if !strings.Contains(apiErr.Message, "deadline") {
		t.Fatalf("message %q does not mention the deadline", apiErr.Message)
	}
	waitMetric(t, cl, "service.jobs_timeout", 1)
}

func TestConcurrentJobsAllSucceed(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 64, Workers: 4}, true)

	const jobs = 16
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			algo := service.AlgoMatch
			if i%2 == 1 {
				algo = service.AlgoColor
			}
			_, _, err := cl.SubmitRetry(context.Background(), &service.Request{
				Algorithm: algo, Graph: gtext, Ranks: 4, Seed: uint64(1 + i%4),
			}, 10)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{QueueLen: 16, Workers: 2}, true)

	// A few jobs in flight while the drain begins.
	const jobs = 4
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Submit(context.Background(), &service.Request{
				Algorithm: service.AlgoColor, Graph: gtext, Seed: uint64(i + 1),
			})
		}(i)
	}
	waitMetric(t, cl, "service.jobs_submitted", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	// Every admitted job finished; drain never abandons accepted work. Jobs
	// that arrived after the drain flag flipped see a retryable 503 instead.
	var apiErr *client.APIError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Errorf("in-flight job %d: %v", i, err)
		}
	}

	if err := cl.Health(context.Background()); err == nil {
		t.Fatal("healthz still ok while draining")
	} else if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v", err)
	}
	_, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext})
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit while draining: %v", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || !apiErr.Retryable() || apiErr.RetryAfter <= 0 {
		t.Fatalf("drain rejection = %+v, want retryable 503 with Retry-After", apiErr)
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 1}, true)
	req := &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 4, Seed: 3}

	first, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	second, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat submission missed the cache")
	}
	if second.JobID == first.JobID {
		t.Fatal("cached answer reused the producing job's id")
	}
	if second.Result != first.Result || second.Weight != first.Weight || second.Cardinality != first.Cardinality {
		t.Fatal("cached answer differs from the producing run")
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["service.cache_hits"] != 1 {
		t.Fatalf("cache_hits = %d, want 1", m.Counters["service.cache_hits"])
	}

	// no_cache bypasses the lookup but the params still identify the job.
	fresh := *req
	fresh.NoCache = true
	third, err := cl.Submit(context.Background(), &fresh)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("no_cache submission served from cache")
	}
	if third.Result != first.Result {
		t.Fatal("recomputed result differs — determinism broken")
	}

	// A different seed is a different job: miss.
	other := *req
	other.Seed = 4
	fourth, err := cl.Submit(context.Background(), &other)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Fatal("different params served from cache")
	}
}

// TestInlineTextVariantsAreOneGraph: an inline text and a variant of it
// that differs in comments and whitespace are one graph — the same
// fingerprint and answer, the second a result-cache hit.
func TestInlineTextVariantsAreOneGraph(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	first, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoColor, Graph: gtext, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	variant := "# the same graph\n" + strings.ReplaceAll(gtext, " ", "  ")
	second, err := cl.Submit(ctx, &service.Request{Algorithm: service.AlgoColor, Graph: variant, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Fingerprint != first.Fingerprint || second.Result != first.Result || !second.Cached {
		t.Fatalf("variant: fingerprint %s (want %s), cached %v, or its result differs", second.Fingerprint, first.Fingerprint, second.Cached)
	}
}

// TestMalformedInlineGraphAnswersOne400: a text that does not parse is
// refused with the same message however often it is sent.
func TestMalformedInlineGraphAnswersOne400(t *testing.T) {
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	var msgs []string
	for i := 0; i < 2; i++ {
		_, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: "g 3 2\ne 0 1 1\ne 1 7 1\n"})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("submission %d: %v, want a 400", i, err)
		}
		msgs = append(msgs, apiErr.Message)
	}
	if msgs[0] != msgs[1] || !strings.Contains(msgs[0], "out of range") {
		t.Fatalf("two refusals of one text: %q and %q", msgs[0], msgs[1])
	}
}

func TestBadRequests(t *testing.T) {
	_, gtext := testGraph(t)
	const maxBody = 64 << 10 // room for gtext, not for the oversize case
	_, cl := startServer(t, service.Config{QueueLen: 4, Workers: 1, MaxBodyBytes: maxBody}, true)
	before, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  service.Request
		want int
	}{
		{"unknown algorithm", service.Request{Algorithm: "sort", Graph: gtext}, http.StatusBadRequest},
		{"missing graph", service.Request{Algorithm: service.AlgoMatch}, http.StatusBadRequest},
		{"graph_path disabled", service.Request{Algorithm: service.AlgoMatch, GraphPath: "/etc/hosts"}, http.StatusBadRequest},
		{"ranks over bound", service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 1 << 20}, http.StatusBadRequest},
		{"malformed graph", service.Request{Algorithm: service.AlgoMatch, Graph: "not a graph\n"}, http.StatusBadRequest},
		{"16 bytes claiming 2e9 vertices", service.Request{Algorithm: service.AlgoMatch, Graph: "g 2000000000 0\n"}, http.StatusBadRequest},
		{"body over MaxBodyBytes", service.Request{Algorithm: service.AlgoMatch, Graph: gtext + strings.Repeat("\n", maxBody)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		_, err := cl.Submit(context.Background(), &tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != tc.want {
			t.Errorf("%s: %v, want status %d", tc.name, err, tc.want)
			continue
		}
		// The 413 tells the caller the bound and the way around it.
		if tc.want == http.StatusRequestEntityTooLarge &&
			(!strings.Contains(apiErr.Message, fmt.Sprint(maxBody)) || !strings.Contains(apiErr.Message, "/v1/uploads")) {
			t.Errorf("%s: message %q names neither the %d-byte bound nor /v1/uploads", tc.name, apiErr.Message, maxBody)
		}
	}
	// Raw bodies, each answered 400 with a message that says why.
	job := `{"algorithm":"match","graph":"g 6 3\ne 0 1 1\ne 2 3 2\ne 4 5 3\n"}`
	for _, tc := range []struct{ name, body, msg string }{
		{"bytes after the job object", job + " trailing garbage", "after top-level value"},
		{"a second job object", job + job, "after top-level value"},
		{"ranks above the vertex count under multilevel", `{"algorithm":"match","graph":"g 2 1\ne 0 1 1\n"}`, "ranks 4 exceed the graph's 2 vertices"},
	} {
		resp, err := http.Post(cl.Base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var answer struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&answer) //nolint:errcheck // an empty Error fails below
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(answer.Error, tc.msg) {
			t.Errorf("%s: %d %q, want 400 saying %q", tc.name, resp.StatusCode, answer.Error, tc.msg)
		}
	}
	// None of them is a failed run: that counter is a correctness signal.
	after, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Counters["service.jobs_failed"] - before.Counters["service.jobs_failed"]; d != 0 {
		t.Errorf("service.jobs_failed moved by %d over bad requests", d)
	}
}

// TestEmptyPartsStillRun: the partitioners that can leave a rank without
// vertices keep running a graph smaller than the rank count.
func TestEmptyPartsStillRun(t *testing.T) {
	_, cl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, true)
	for _, p := range []string{"block", "bfs", "random"} {
		if _, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: "g 2 1\ne 0 1 1\n", Partition: p}); err != nil {
			t.Errorf("%s, 4 ranks, 2 vertices: %v", p, err)
		}
	}
}

// asTenant clones a client bound to a tenant id.
func asTenant(cl *client.Client, tenant string) *client.Client {
	c := *cl
	c.Tenant = tenant
	return &c
}

func TestTenantQueueIsolation(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{
			"hot": {MaxQueued: 1},
		}},
	}, false)

	// With no workers, hot's first job parks and fills its queue of 1.
	hot, bg := asTenant(cl, "hot"), asTenant(cl, "bg")
	parked := make(chan error, 2)
	go func() {
		_, err := hot.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext})
		parked <- err
	}()
	waitMetric(t, cl, "service.tenant.hot.queue_depth", 1)

	// hot overflows its own queue...
	_, err := hot.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Seed: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("hot overflow: %v, want 429", err)
	}
	if !strings.Contains(apiErr.Message, `tenant "hot"`) || !strings.Contains(apiErr.Message, "queue full") {
		t.Fatalf("429 message %q does not name the tenant's full queue", apiErr.Message)
	}

	// ...while bg, under the same roof, still queues freely.
	go func() {
		_, err := bg.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Seed: 3})
		parked <- err
	}()
	waitMetric(t, cl, "service.tenant.bg.queue_depth", 1)

	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counters["service.tenant.hot.rejected_queue"]; got != 1 {
		t.Fatalf("hot rejected_queue = %d, want 1", got)
	}
	if got := m.Counters["service.tenant.bg.rejected"]; got != 0 {
		t.Fatalf("bg rejected = %d, want 0", got)
	}

	// Start the workers: both parked jobs complete and carry their tenants.
	srv.Start()
	for i := 0; i < 2; i++ {
		if err := <-parked; err != nil {
			t.Fatalf("parked job failed after workers started: %v", err)
		}
	}
}

func TestTenantRateLimit429(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{
			// One token, refilled over ~17 minutes: the second request is
			// deterministically over the limit however slow the test host.
			"slow": {RatePerSec: 0.001, Burst: 1},
		}},
	}, true)
	slow := asTenant(cl, "slow")

	if _, err := slow.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext}); err != nil {
		t.Fatalf("first (burst) submission: %v", err)
	}
	_, err := slow.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Seed: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("over-rate submission: %v, want 429", err)
	}
	if !strings.Contains(apiErr.Message, "rate limit") {
		t.Fatalf("429 message %q does not mention the rate limit", apiErr.Message)
	}
	// Retry-After derives from the tenant's own bucket: 1 token at 0.001/s
	// is 1000 seconds, not the fixed queue-full hint.
	if apiErr.RetryAfter < 2*time.Second {
		t.Fatalf("Retry-After = %v, want the bucket-derived wait", apiErr.RetryAfter)
	}

	// The default tenant is not rate-limited by slow's bucket.
	if _, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext}); err != nil {
		t.Fatalf("default-tenant submission: %v", err)
	}

	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counters["service.tenant.slow.rejected_rate"]; got != 1 {
		t.Fatalf("slow rejected_rate = %d, want 1", got)
	}
}

func TestInvalidTenantHeader400(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, true)
	bad := asTenant(cl, "no spaces allowed")
	_, err := bad.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("invalid tenant header: %v, want 400", err)
	}
}

func TestResponseCarriesTenant(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 1}, true)
	req := &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Seed: 9}

	alice := asTenant(cl, "alice")
	first, err := alice.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenant != "alice" {
		t.Fatalf("computed response tenant = %q, want alice", first.Tenant)
	}
	// A cache hit serves any tenant, stamped with the hitter's own id.
	bob := asTenant(cl, "bob")
	second, err := bob.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Tenant != "bob" {
		t.Fatalf("cached response = (cached %v, tenant %q), want (true, bob)", second.Cached, second.Tenant)
	}
	if second.Result != first.Result {
		t.Fatal("cross-tenant cache hit changed the result")
	}
}

// TestDrainFlipsAllTenants extends the PR-5 mutex-ordering regression to
// tenant queues: a drain racing concurrent multi-tenant submissions must
// leave every job either admitted (and finished by Drain) or rejected with
// 503 — never queued-but-unadmitted — and afterwards every tenant, known
// or new, is refused.
func TestDrainFlipsAllTenants(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{
		QueueLen: 32, Workers: 2,
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{
			"hot": {Weight: 1}, "bg": {Weight: 3},
		}},
	}, true)

	tenants := []string{"", "hot", "bg"}
	const jobs = 12
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := asTenant(cl, tenants[i%len(tenants)])
			_, errs[i] = c.Submit(context.Background(), &service.Request{
				Algorithm: service.AlgoColor, Graph: gtext, Seed: uint64(i + 1),
			})
		}(i)
	}
	waitMetric(t, cl, "service.jobs_submitted", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Drain returning proves no admitted job leaked past pending.Add in any
	// tenant's queue: Wait covers them all.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	var apiErr *client.APIError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Errorf("job %d (tenant %q): %v, want success or 503", i, tenants[i%len(tenants)], err)
		}
	}

	// Post-drain, submissions are refused for every tenant — existing
	// queues, the default, and names never seen before.
	for _, tenant := range []string{"", "hot", "bg", "brand-new"} {
		c := asTenant(cl, tenant)
		_, err := c.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext})
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 {
			t.Errorf("tenant %q post-drain: %v, want 503 with Retry-After", tenant, err)
		}
	}
	// Upload opens are refused too.
	if _, err := cl.UploadOpen(context.Background(), 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("upload open post-drain: %v, want 503", err)
	}
}

func TestTenantUploadBudgets(t *testing.T) {
	_, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{
			"up":   {MaxUploads: 1},
			"slow": {RatePerSec: 0.001, Burst: 1},
		}},
	}, true)
	up := asTenant(cl, "up")

	st, err := up.UploadOpen(context.Background(), 0)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	_, err = up.UploadOpen(context.Background(), 0)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("open beyond upload cap: %v, want 429", err)
	}
	if !strings.Contains(apiErr.Message, "upload cap") {
		t.Fatalf("429 message %q does not mention the upload cap", apiErr.Message)
	}

	// Aborting the session releases the budget slot (the settle path).
	if err := up.UploadAbort(context.Background(), st.UploadID); err != nil {
		t.Fatalf("abort: %v", err)
	}
	st2, err := up.UploadOpen(context.Background(), 0)
	if err != nil {
		t.Fatalf("open after abort: %v", err)
	}
	up.UploadAbort(context.Background(), st2.UploadID) //nolint:errcheck // cleanup

	// Upload opens consume the same rate bucket as jobs.
	slow := asTenant(cl, "slow")
	if _, err := slow.UploadOpen(context.Background(), 0); err != nil {
		t.Fatalf("slow tenant first open: %v", err)
	}
	_, err = slow.UploadOpen(context.Background(), 0)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("slow tenant second open: %v, want rate-limit 429", err)
	}
	if apiErr.RetryAfter < 2*time.Second {
		t.Fatalf("Retry-After = %v, want the bucket-derived wait", apiErr.RetryAfter)
	}
}

func TestMetricsEndpointStable(t *testing.T) {
	_, cl := startServer(t, service.Config{}, true)
	read := func() string {
		resp, err := http.Get(cl.Base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	if a, b := read(), read(); a != b {
		t.Fatal("idle /metrics scrapes not byte-stable")
	}
}

// TestJobRoutes pins the status code of every (method, path) under /v1/jobs:
// 405 for a wrong method on a known path, 404 for an unknown path or a job
// with no retained trace, 200 otherwise.
func TestJobRoutes(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 1, TraceSlowMillis: 0}, true) // 0: every job's trace is retained
	done, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobJSON, err := json.Marshal(service.Request{Algorithm: service.AlgoColor, Graph: gtext, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	job := string(jobJSON)
	retained := "/v1/jobs/" + done.JobID + "/trace"
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/jobs", job, http.StatusOK},
		{http.MethodPost, "/v1/jobs", "{", http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs", "", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/jobs", job, http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/jobs", "", http.StatusMethodNotAllowed},
		{http.MethodGet, retained, "", http.StatusOK},
		{http.MethodPost, retained, "", http.StatusMethodNotAllowed},
		{http.MethodDelete, retained, "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/jobs/no-such-job/trace", "", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/", "", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/" + done.JobID, "", http.StatusNotFound},
		{http.MethodGet, retained + "/", "", http.StatusNotFound},
		{http.MethodGet, retained + "/spans", "", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/" + done.JobID + "/result", "", http.StatusNotFound},
		{http.MethodGet, "/v1/job", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, cl.Base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}
