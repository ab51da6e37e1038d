// Package obs is the observability subsystem of the runtime: a low-overhead
// per-rank event tracer plus a metrics registry (counters, gauges, bounded
// histograms). The paper's entire contribution is a communication profile —
// bundled REQUEST/SUCCEEDED/FAILED traffic for matching, neighbor-only color
// exchange for coloring — and this package is what makes that profile
// visible on a live run instead of only as end-of-run aggregates.
//
// Overhead contract:
//
//   - Disabled (nil *Tracer / nil *Registry): every operation is a nil check
//     and an immediate return — zero allocations, zero atomics, no clock
//     reads. Algorithms instrument unconditionally and pay nothing when
//     observability is off.
//   - Enabled: a span is two clock reads and two writes into a fixed-capacity
//     ring buffer (no allocation; the ring is allocated once up front); a
//     counter update is one atomic add. Span names must be static strings —
//     the tracer stores them by reference and never copies.
//
// A Tracer is owned by a single rank goroutine; the ring is read only after
// the run completes. A Registry is shared and safe for concurrent use,
// including live polling while ranks are in flight — the live /metrics
// scrape (ServeLive, polled by dmgm-trace -watch) is built on exactly that
// property.
package obs

import "time"

// Span is one completed traced interval on one rank.
type Span struct {
	// Seq is the tracer-local sequence number (monotone; survives ring
	// wraparound, so exports can report how many spans were dropped).
	Seq uint64
	// Rank is the owning rank, or DriverRank for driver-side spans.
	Rank int
	// Name identifies the instrumented phase (a static string).
	Name string
	// Detail marks a nested span (inner loop) as opposed to a top-level
	// phase; analyzers must not sum detail spans into rank busy time.
	Detail bool
	// Parent is the Seq of this span's parent on the same tracer, or 0 for
	// a root span. Parenting is optional — the runtime's flat per-rank
	// phase spans leave it 0 — and exists for callers that record a span
	// tree (the serving layer's per-job lifecycle trace). Exporters map a
	// nonzero Parent onto the parent span's id.
	Parent uint64
	// Start is the wall-clock start in nanoseconds since the Unix epoch
	// (wall time so that shards from different processes align when merged).
	Start int64
	// Dur is the span length in nanoseconds.
	Dur int64
	// N is a free span argument (iteration number, records processed, ...).
	N int64
	// Msgs and Bytes are the rank's sent-message and sent-byte deltas over
	// the span, captured through the stats hook — the per-phase traffic
	// breakdown the paper's evaluation methodology is built on.
	Msgs, Bytes int64
}

// DriverRank marks spans recorded outside any rank (graph IO, partitioning).
const DriverRank = -1

// Tracer records spans for one rank into a fixed-capacity ring buffer. The
// zero-capacity and nil tracers are valid and record nothing. The ring evicts
// the oldest span on wraparound, so a long run keeps its tail; Recorded()
// counts every begin, so an export can say how many were dropped.
type Tracer struct {
	rank int
	ring []Span
	seq  uint64
	// stats, when set, samples the rank's cumulative (sentMsgs, sentBytes)
	// at span boundaries so each span carries its traffic delta.
	stats func() (msgs, bytes int64)
	// now is the clock, replaceable by tests for deterministic exports.
	now func() int64
}

// NewTracer creates a tracer for the given rank with room for capacity
// spans; older spans are overwritten once the ring wraps.
func NewTracer(rank, capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{rank: rank, ring: make([]Span, capacity), now: wallNow}
}

func wallNow() int64 { return time.Now().UnixNano() }

// SetStatsFunc installs the traffic sampler invoked at span boundaries. It
// must be cheap and safe to call from the tracer's owning goroutine.
func (t *Tracer) SetStatsFunc(f func() (msgs, bytes int64)) {
	if t != nil {
		t.stats = f
	}
}

// Begin opens a top-level phase span and returns its token. On a nil tracer
// it costs one comparison and returns 0.
func (t *Tracer) Begin(name string) uint64 {
	if t == nil {
		return 0
	}
	return t.begin(name, false, 0)
}

// BeginUnder opens a span parented under the span whose token is parent —
// how a caller builds an explicit span tree (parent 0 = root). The parent
// is recorded by token only; it need not still occupy a ring slot.
func (t *Tracer) BeginUnder(name string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.begin(name, false, parent)
}

// BeginDetail opens a nested (inner-loop) span.
func (t *Tracer) BeginDetail(name string) uint64 {
	if t == nil {
		return 0
	}
	return t.begin(name, true, 0)
}

func (t *Tracer) begin(name string, detail bool, parent uint64) uint64 {
	t.seq++
	seq := t.seq
	var m, b int64
	if t.stats != nil {
		m, b = t.stats()
	}
	// The slot temporarily holds the begin-time counters in Msgs/Bytes;
	// End replaces them with deltas. Dur < 0 marks the span as open.
	t.ring[seq%uint64(len(t.ring))] = Span{
		Seq: seq, Rank: t.rank, Name: name, Detail: detail, Parent: parent,
		Start: t.now(), Dur: -1, Msgs: m, Bytes: b,
	}
	return seq
}

// End closes the span opened under tok. A span whose ring slot was
// overwritten by wraparound is silently dropped.
func (t *Tracer) End(tok uint64) { t.EndN(tok, 0) }

// EndN closes the span and attaches the free argument n.
func (t *Tracer) EndN(tok uint64, n int64) {
	if t == nil || tok == 0 {
		return
	}
	s := &t.ring[tok%uint64(len(t.ring))]
	if s.Seq != tok || s.Dur >= 0 {
		return // overwritten by wraparound (or already closed)
	}
	s.Dur = t.now() - s.Start
	s.N = n
	if t.stats != nil {
		m, b := t.stats()
		s.Msgs = m - s.Msgs
		s.Bytes = b - s.Bytes
	}
}

// Observe records a retroactive span that started at start and ends now —
// for callers that time a phase themselves (the CLI drivers timing graph IO
// and partitioning before any tracer exists for certain).
func (t *Tracer) Observe(name string, start time.Time, n int64) {
	t.ObserveUnder(name, start, n, 0)
}

// ObserveUnder is Observe with an explicit parent token (0 = root). It
// returns the recorded span's own token so further spans can parent under
// it — the serving layer hangs a job's runtime rank spans under the
// retroactive "run" span this way. Returns 0 on a nil tracer.
func (t *Tracer) ObserveUnder(name string, start time.Time, n int64, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.ObserveSpan(name, start.UnixNano(), t.now()-start.UnixNano(), n, parent)
}

// ObserveSpan records a fully specified retroactive span: start and duration
// in nanoseconds, free argument, parent token (0 = root). It is the
// lowest-level recording entry — for callers that timed an interval on
// another goroutine and hand the measurements over later, like the serving
// layer's partition span measured inside the run goroutine. Returns the
// span's token (0 on nil).
func (t *Tracer) ObserveSpan(name string, startNanos, durNanos, n int64, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	if durNanos < 0 {
		durNanos = 0
	}
	t.seq++
	seq := t.seq
	t.ring[seq%uint64(len(t.ring))] = Span{
		Seq: seq, Rank: t.rank, Name: name, Parent: parent,
		Start: startNanos, Dur: durNanos, N: n,
	}
	return seq
}

// Spans returns the completed spans still held in the ring, oldest first.
// Call only after the owning goroutine has finished recording.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.ring))
	n := uint64(len(t.ring))
	lo := uint64(1)
	if t.seq > n {
		lo = t.seq - n + 1
	}
	for seq := lo; seq <= t.seq; seq++ {
		s := t.ring[seq%n]
		if s.Seq == seq && s.Dur >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Recorded reports how many spans were ever opened; Recorded() minus
// len(Spans()) is the wraparound-dropped (or never-closed) count.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}
