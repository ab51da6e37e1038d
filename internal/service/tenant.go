package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"sync"
	"time"

	"repro/internal/obs"
)

// TenantHeader is the HTTP header naming the caller's tenant
// (docs/PROTOCOL.md §8). Requests without it belong to DefaultTenant.
const TenantHeader = "X-DMGM-Tenant"

// DefaultTenant is the tenant id of anonymous callers — requests that carry
// no TenantHeader. It is always present in the scheduler and is also the
// fold-over tenant when the distinct-tenant bound is reached.
const DefaultTenant = "default"

// tenantNameRe bounds tenant ids: they become metric names and log fields,
// so the charset is deliberately narrow.
var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// tenantFrom resolves a request's tenant id. An absent header is the
// default tenant; a malformed one reports !ok and the caller answers 400.
func tenantFrom(r *http.Request) (string, bool) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, true
	}
	if !tenantNameRe.MatchString(t) {
		return "", false
	}
	return t, true
}

// TenantPolicy is one tenant's admission budget. The zero value is the
// permissive default: weight 1, no rate limit, the server's queue bound,
// and unlimited concurrency and uploads.
type TenantPolicy struct {
	// Weight is the tenant's share in the weighted round-robin dispatcher:
	// with queues saturated, a weight-3 tenant is dispatched three jobs for
	// every one of a weight-1 tenant (default 1).
	Weight int `json:"weight,omitempty"`
	// RatePerSec is the token-bucket refill rate gating submissions and
	// upload opens; 0 disables rate limiting for the tenant.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity — how many requests may arrive at once
	// before the rate applies (default ceil(RatePerSec), at least 1).
	Burst int `json:"burst,omitempty"`
	// MaxQueued bounds the tenant's own admission queue; beyond it
	// submissions are shed with a per-tenant 429 (default: the server's
	// QueueLen).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxConcurrent bounds the tenant's jobs executing at once; a tenant at
	// its budget keeps its queue and is skipped by the dispatcher until a
	// job finishes (0 = no per-tenant bound; the worker pool still bounds
	// the total).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxUploads bounds the tenant's concurrently open upload sessions
	// (0 = no per-tenant bound; the server-wide session bound still
	// applies).
	MaxUploads int `json:"max_uploads,omitempty"`
}

// normalize fills defaults in place. defaultQueue is the server's global
// queue bound, inherited by tenants that do not set their own.
func (p *TenantPolicy) normalize(defaultQueue int) {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	if p.RatePerSec < 0 {
		p.RatePerSec = 0
	}
	if p.Burst <= 0 {
		if p.RatePerSec > 0 {
			p.Burst = int(math.Ceil(p.RatePerSec))
		}
		if p.Burst < 1 {
			p.Burst = 1
		}
	}
	if p.MaxQueued <= 0 {
		p.MaxQueued = defaultQueue
	}
	if p.MaxConcurrent < 0 {
		p.MaxConcurrent = 0
	}
	if p.MaxUploads < 0 {
		p.MaxUploads = 0
	}
}

// TenantPolicies is the full admission configuration: a default policy for
// tenants not named, plus per-tenant overrides. The zero value (and a nil
// *TenantPolicies) applies the permissive default policy to every tenant.
//
// The type is the JSON shape of the dmgm-serve `-tenants` file, reloadable
// at runtime via SIGHUP (see docs/OPERATIONS.md):
//
//	{
//	  "default": {"weight": 1},
//	  "tenants": {
//	    "batch":       {"weight": 1, "rate_per_sec": 5, "max_queued": 8},
//	    "interactive": {"weight": 3}
//	  }
//	}
type TenantPolicies struct {
	// Default applies to every tenant without an entry in Tenants.
	Default TenantPolicy `json:"default"`
	// Tenants maps tenant ids to their overriding policies.
	Tenants map[string]TenantPolicy `json:"tenants,omitempty"`
}

// Validate rejects malformed policy sets: bad tenant names and negative
// budgets. Called by LoadTenantPolicies; call it directly when building
// policies in code from untrusted input.
func (tp *TenantPolicies) Validate() error {
	check := func(name string, p TenantPolicy) error {
		if p.Weight < 0 || p.RatePerSec < 0 || p.Burst < 0 ||
			p.MaxQueued < 0 || p.MaxConcurrent < 0 || p.MaxUploads < 0 {
			return fmt.Errorf("tenant %q: negative budget in %+v", name, p)
		}
		return nil
	}
	if err := check("default", tp.Default); err != nil {
		return err
	}
	for name, p := range tp.Tenants {
		if !tenantNameRe.MatchString(name) {
			return fmt.Errorf("invalid tenant id %q: want %s", name, tenantNameRe)
		}
		if err := check(name, p); err != nil {
			return err
		}
	}
	return nil
}

// policyFor resolves the effective (un-normalized) policy for a tenant.
func (tp *TenantPolicies) policyFor(name string) TenantPolicy {
	if tp == nil {
		return TenantPolicy{}
	}
	if p, ok := tp.Tenants[name]; ok {
		return p
	}
	return tp.Default
}

// LoadTenantPolicies reads and validates a `-tenants` JSON file. Unknown
// fields are rejected so a typo in an operator's config fails loudly at
// load (or SIGHUP) time instead of silently applying defaults.
func LoadTenantPolicies(path string) (*TenantPolicies, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var tp TenantPolicies
	if err := dec.Decode(&tp); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if err := tp.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tp, nil
}

// tenantQueue is one tenant's admission state: its FIFO of admitted jobs,
// its deficit-round-robin credit, its token bucket, and its budgets' usage.
// Every field is guarded by the owning scheduler's mutex.
type tenantQueue struct {
	name string
	pol  TenantPolicy // normalized

	fifo    []*job
	head    int // fifo[head:] are the queued jobs; amortizes pop-front
	deficit int // remaining round-robin credit, in jobs
	running int // jobs of this tenant occupying workers
	uploads int // open upload sessions

	tokens   float64   // token bucket level
	lastFill time.Time // zero until the bucket's first refill

	// Instruments (nil-safe no-ops without a registry). The counters and
	// histograms types carry the service-wide instrument together with this
	// tenant's, so one call feeds both.
	submitted  counters // service.jobs_submitted + .submitted
	admitted   *obs.Counter
	rejRate    counters // service.jobs_rejected + .rejected (all 429s) + .rejected_rate
	rejQueue   counters // service.jobs_rejected + .rejected + .rejected_queue
	completed  counters // service.jobs_completed + .completed
	upRejected *obs.Counter
	depth      *obs.Gauge
	runningG   *obs.Gauge
	uploadsG   *obs.Gauge
	lat        histograms // service.job_latency_ms + .latency_ms
	qwait      histograms // queue wait, dispatch minus enqueue
	runh       histograms // run time on the worker (partition + supersteps)
}

// queuedLocked reports the tenant's queue depth.
func (tq *tenantQueue) queuedLocked() int { return len(tq.fifo) - tq.head }

// refillLocked tops the token bucket up for the elapsed time.
func (tq *tenantQueue) refillLocked(now time.Time) {
	if tq.pol.RatePerSec <= 0 {
		return
	}
	if tq.lastFill.IsZero() {
		tq.tokens = float64(tq.pol.Burst)
		tq.lastFill = now
		return
	}
	if d := now.Sub(tq.lastFill); d > 0 {
		tq.tokens += d.Seconds() * tq.pol.RatePerSec
		if max := float64(tq.pol.Burst); tq.tokens > max {
			tq.tokens = max
		}
		tq.lastFill = now
	}
}

// tenantSched is the multi-tenant admission scheduler: per-tenant FIFO
// queues dispatched by weighted deficit round-robin, with per-tenant token
// buckets and concurrency/upload budgets in front. One mutex guards all
// scheduling state; workers block on the condition variable when no tenant
// is dispatchable. All methods are safe for concurrent use.
type tenantSched struct {
	mu           sync.Mutex
	cond         *sync.Cond
	reg          *obs.Registry
	policies     *TenantPolicies
	defaultQueue int
	maxTenants   int
	now          func() time.Time // injectable clock for tests

	tenants map[string]*tenantQueue
	ring    []*tenantQueue // creation order; the DRR visiting order
	cur     int            // ring index the dispatcher resumes at
	queued  int            // total queued jobs across tenants
	stopped bool

	depthAll *obs.Gauge   // service.queue_depth (total across tenants)
	tenantsG *obs.Gauge   // service.tenants
	folded   *obs.Counter // service.tenant_overflow_folded
}

// newTenantSched builds the scheduler. pol may be nil (permissive defaults
// for everyone); the default tenant's queue always exists so fold-over has
// a target.
func newTenantSched(pol *TenantPolicies, defaultQueue, maxTenants int, reg *obs.Registry) *tenantSched {
	s := &tenantSched{
		reg:          reg,
		policies:     pol,
		defaultQueue: defaultQueue,
		maxTenants:   maxTenants,
		now:          time.Now,
		tenants:      make(map[string]*tenantQueue),
		depthAll:     reg.Gauge("service.queue_depth"),
		tenantsG:     reg.Gauge("service.tenants"),
		folded:       reg.Counter("service.tenant_overflow_folded"),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mu.Lock()
	s.addTenantLocked(DefaultTenant)
	s.mu.Unlock()
	return s
}

// addTenantLocked creates a tenant queue under its configured policy.
func (s *tenantSched) addTenantLocked(name string) *tenantQueue {
	pol := s.policies.policyFor(name)
	pol.normalize(s.defaultQueue)
	prefix := "service.tenant." + name + "."
	reg, bounds := s.reg, obs.ExpBounds(1, 1<<22)
	rejected, tenantRejected := reg.Counter("service.jobs_rejected"), reg.Counter(prefix+"rejected")
	tq := &tenantQueue{
		name:       name,
		pol:        pol,
		submitted:  counters{reg.Counter("service.jobs_submitted"), reg.Counter(prefix + "submitted")},
		admitted:   reg.Counter(prefix + "admitted"),
		rejRate:    counters{rejected, tenantRejected, reg.Counter(prefix + "rejected_rate")},
		rejQueue:   counters{rejected, tenantRejected, reg.Counter(prefix + "rejected_queue")},
		completed:  counters{reg.Counter("service.jobs_completed"), reg.Counter(prefix + "completed")},
		upRejected: reg.Counter(prefix + "uploads_rejected"),
		depth:      reg.Gauge(prefix + "queue_depth"),
		runningG:   reg.Gauge(prefix + "running"),
		uploadsG:   reg.Gauge(prefix + "uploads_open"),
		lat:        histograms{reg.Histogram("service.job_latency_ms", bounds), reg.Histogram(prefix+"latency_ms", bounds)},
		qwait:      histograms{reg.Histogram("service.queue_wait_ms", bounds), reg.Histogram(prefix+"queue_wait_ms", bounds)},
		runh:       histograms{reg.Histogram("service.run_ms", bounds), reg.Histogram(prefix+"run_ms", bounds)},
	}
	s.tenants[name] = tq
	s.ring = append(s.ring, tq)
	s.tenantsG.Set(int64(len(s.ring)))
	return tq
}

// tenantFor resolves (creating on first sight) a tenant's queue. Beyond
// maxTenants distinct tenants, new names fold into the default tenant's
// queue and budgets — the table cannot be grown without bound by a caller
// inventing header values.
func (s *tenantSched) tenantFor(name string) *tenantQueue {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq, ok := s.tenants[name]; ok {
		return tq
	}
	if len(s.ring) >= s.maxTenants {
		s.folded.Inc()
		return s.tenants[DefaultTenant]
	}
	return s.addTenantLocked(name)
}

// takeToken consumes one rate token, or reports how many seconds until the
// tenant's own bucket grants one (the Retry-After derivation of
// docs/PROTOCOL.md §8).
func (s *tenantSched) takeToken(tq *tenantQueue) (retryAfterSecs int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq.pol.RatePerSec <= 0 {
		return 0, true
	}
	tq.refillLocked(s.now())
	if tq.tokens >= 1 {
		tq.tokens--
		return 0, true
	}
	secs := int(math.Ceil((1 - tq.tokens) / tq.pol.RatePerSec))
	if secs < 1 {
		secs = 1
	}
	return secs, false
}

// enqueue appends an admitted job to its tenant's queue; false means the
// tenant's own queue is full (shed with a per-tenant 429 — other tenants'
// queues are unaffected).
func (s *tenantSched) enqueue(tq *tenantQueue, j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq.queuedLocked() >= tq.pol.MaxQueued {
		return false
	}
	tq.fifo = append(tq.fifo, j)
	s.queued++
	tq.depth.Set(int64(tq.queuedLocked()))
	s.depthAll.Set(int64(s.queued))
	s.cond.Signal()
	return true
}

// next blocks until a job is dispatchable (or the scheduler stops) and
// returns it with its tenant, which is charged one running slot; the worker
// must release(tq) when the job leaves its worker.
func (s *tenantSched) next() (*job, *tenantQueue, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, nil, false
		}
		if j, tq := s.popLocked(); j != nil {
			tq.running++
			tq.runningG.Set(int64(tq.running))
			return j, tq, true
		}
		s.cond.Wait()
	}
}

// popLocked is the deficit-round-robin dispatch: visit tenants in ring
// order starting at cur; an eligible tenant (jobs queued, concurrency
// budget free) is granted its weight in credit on arrival and dispatched
// one job per credit before the pointer moves on. Saturated queues
// therefore interleave in weight proportion — a weight-3 tenant sends
// three jobs for a weight-1 tenant's one — while a tenant at its
// concurrency budget is skipped with its credit intact.
func (s *tenantSched) popLocked() (*job, *tenantQueue) {
	n := len(s.ring)
	for scanned := 0; scanned < n; scanned++ {
		i := (s.cur + scanned) % n
		tq := s.ring[i]
		if tq.queuedLocked() == 0 {
			tq.deficit = 0 // credit does not accumulate while idle
			continue
		}
		if tq.pol.MaxConcurrent > 0 && tq.running >= tq.pol.MaxConcurrent {
			continue // budget-blocked: skipped, credit intact
		}
		if tq.deficit <= 0 {
			tq.deficit = tq.pol.Weight
		}
		tq.deficit--
		j := tq.fifo[tq.head]
		tq.fifo[tq.head] = nil // release the job reference for GC
		tq.head++
		if tq.head == len(tq.fifo) {
			tq.fifo = tq.fifo[:0]
			tq.head = 0
		}
		s.queued--
		tq.depth.Set(int64(tq.queuedLocked()))
		s.depthAll.Set(int64(s.queued))
		if tq.deficit > 0 && tq.queuedLocked() > 0 {
			s.cur = i // credit left: this tenant continues next pop
		} else {
			if tq.queuedLocked() == 0 {
				tq.deficit = 0
			}
			s.cur = (i + 1) % n
		}
		return j, tq
	}
	return nil, nil
}

// release returns a tenant's running slot when its job leaves the worker
// (finished, failed, or timed out). Broadcast, not Signal: freeing a slot
// can make a budget-blocked tenant dispatchable for several waiting
// workers at once.
func (s *tenantSched) release(tq *tenantQueue) {
	s.mu.Lock()
	tq.running--
	tq.runningG.Set(int64(tq.running))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// addUpload charges one open upload session against the tenant's budget;
// false means the tenant is at its cap.
func (s *tenantSched) addUpload(tq *tenantQueue) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tq.pol.MaxUploads > 0 && tq.uploads >= tq.pol.MaxUploads {
		return false
	}
	tq.uploads++
	tq.uploadsG.Set(int64(tq.uploads))
	return true
}

// dropUpload releases an upload session's budget charge.
func (s *tenantSched) dropUpload(tq *tenantQueue) {
	s.mu.Lock()
	tq.uploads--
	tq.uploadsG.Set(int64(tq.uploads))
	s.mu.Unlock()
}

// totalQueued reports the queued-job total across tenants.
func (s *tenantSched) totalQueued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// depths reports every tenant's current queue depth (the healthz body).
func (s *tenantSched) depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.ring))
	for _, tq := range s.ring {
		out[tq.name] = tq.queuedLocked()
	}
	return out
}

// setPolicies swaps the policy set at runtime (the SIGHUP reload path).
// Existing tenant queues are re-bound to their new policies in place:
// queued jobs stay queued, bucket levels carry over clamped to the new
// burst, and a bucket switching from unlimited to rate-limited starts
// full.
func (s *tenantSched) setPolicies(p *TenantPolicies) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policies = p
	now := s.now()
	for _, tq := range s.ring {
		np := p.policyFor(tq.name)
		np.normalize(s.defaultQueue)
		switch {
		case np.RatePerSec <= 0:
			tq.tokens, tq.lastFill = 0, time.Time{}
		case tq.pol.RatePerSec <= 0:
			tq.tokens, tq.lastFill = float64(np.Burst), now
		default:
			tq.refillLocked(now)
			if max := float64(np.Burst); tq.tokens > max {
				tq.tokens = max
			}
		}
		tq.pol = np
	}
	// New weights or budgets may unblock waiting workers.
	s.cond.Broadcast()
}

// stop wakes every blocked worker into its exit path. Idempotent.
func (s *tenantSched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
