package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer's public
// function. Spans of one job share Job; Parent is the span that caused it
// (0 = none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Job    int32  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // relative to the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so the measured path reads the same
// either way.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, job int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere: a rank goroutine's
// time inside a kernel, or a span of the daemon's own tree.
func (t *tracer) add(name string, parent, job int32, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// setParent re-parents a span added before its parent was known.
func (t *tracer) setParent(id, parent int32) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// stageRow summarises the spans of one name.
type stageRow struct {
	Count       int     `json:"count"`
	P50Ms       float64 `json:"p50_ms"`
	SelfP50Ms   float64 `json:"self_p50_ms"`
	SelfTotalMs float64 `json:"self_total_ms"`
}

// selfNanos returns each span's self time: its duration minus the part of
// that interval its child spans cover (children may overlap, as the rank
// goroutines of one World.Run do).
func selfNanos(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// stageTable groups spans by name.
func stageTable(spans []span) map[string]stageRow {
	self := selfNanos(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e6)
	}
	out := make(map[string]stageRow, len(durs))
	for name, d := range durs {
		total := 0.0
		for _, x := range selfs[name] {
			total += x
		}
		out[name] = stageRow{Count: len(d), P50Ms: median(d), SelfP50Ms: median(selfs[name]), SelfTotalMs: total}
	}
	return out
}

// spanDurs lists the durations, in ms, of every span called name.
func spanDurs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
