package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Registry is a process-wide metrics namespace: named counters, gauges,
// per-rank counter vectors, and bounded histograms. All instruments are
// safe for concurrent use (single atomic operations); lookup/creation takes
// a mutex and is meant to happen once, at wiring time, with the returned
// instrument cached by the caller.
//
// A nil *Registry is valid: every lookup returns a nil instrument, and every
// nil-instrument operation is a single comparison — the disabled fast path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	vecs     map[string]*Vec
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		vecs:     make(map[string]*Vec),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; a no-op on nil.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load reads the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins atomic cell.
type Gauge struct{ v atomic.Int64 }

// Set stores the value; a no-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load reads the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Vec is a fixed-length vector of counters, indexed by rank.
type Vec struct{ cells []paddedCounter }

// paddedCounter is a Vec cell alone on its 64-byte cache line, so ranks
// adding to their own cells at once do not contend for one line.
type paddedCounter struct {
	Counter
	_ [64 - unsafe.Sizeof(Counter{})]byte
}

// At returns the rank's cell (nil on a nil vec or out-of-range index).
func (v *Vec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.cells) {
		return nil
	}
	return &v.cells[i].Counter
}

// Len reports the vector length (0 on nil).
func (v *Vec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.cells)
}

// Histogram counts observations into fixed upper-bound buckets (the last
// bucket is an implicit +Inf overflow), tracking sum and count alongside.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value; a no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ExpBounds builds power-of-two histogram bounds from lo to hi inclusive
// (both rounded to powers of two), e.g. ExpBounds(64, 1<<20) for bundle
// sizes from one cache line to a megabyte.
func ExpBounds(lo, hi int64) []int64 {
	var out []int64
	for b := int64(1); b <= hi; b <<= 1 {
		if b >= lo {
			out = append(out, b)
		}
	}
	return out
}

// instrument is the one get-or-create behind the four lookups below: the
// first caller of a name fixes the instrument (and so a vec's length and a
// histogram's bounds), every later caller gets the same one.
func instrument[T any](r *Registry, m map[string]*T, name string, create func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = create()
		m[name] = v
	}
	return v
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Vec returns (creating if needed) the named per-rank counter vector of the
// given length; nil on a nil registry. The length is fixed by the first
// caller.
func (r *Registry) Vec(name string, n int) *Vec {
	if r == nil {
		return nil
	}
	return instrument(r, r.vecs, name, func() *Vec { return &Vec{cells: make([]paddedCounter, n)} })
}

// Histogram returns (creating if needed) the named histogram with the given
// upper bounds; nil on a nil registry. Bounds are fixed by the first caller.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(r, r.hists, name, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is +Inf overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// MetricsSnapshot is a point-in-time, serializable copy of a registry. It is
// also the shard-merge unit: counters, vectors, and histogram buckets sum,
// gauges take the maximum.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	PerRank    map[string][]int64           `json:"perRank,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. Safe during a live run.
func (r *Registry) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		PerRank:    map[string][]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, v := range r.vecs {
		vals := make([]int64, len(v.cells))
		for i := range v.cells {
			vals[i] = v.cells[i].Load()
		}
		s.PerRank[name] = vals
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.sum.Load(),
			Count:  h.n.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge folds o into s: counters, per-rank vectors, and histogram buckets
// add; gauges keep the maximum. Vectors and histograms of mismatched shape
// keep the longer/first shape and add what overlaps.
func (s *MetricsSnapshot) Merge(o *MetricsSnapshot) {
	if o == nil {
		return
	}
	mergeSection(&s.Counters, o.Counters, func(cur int64, _ bool, v int64) int64 { return cur + v })
	mergeSection(&s.Gauges, o.Gauges, func(cur int64, ok bool, v int64) int64 {
		if ok && cur > v {
			return cur
		}
		return v
	})
	mergeSection(&s.PerRank, o.PerRank, func(cur []int64, _ bool, vals []int64) []int64 {
		if len(vals) > len(cur) {
			cur = append(cur, make([]int64, len(vals)-len(cur))...)
		}
		for i, v := range vals {
			cur[i] += v
		}
		return cur
	})
	mergeSection(&s.Histograms, o.Histograms, func(cur HistogramSnapshot, ok bool, h HistogramSnapshot) HistogramSnapshot {
		if !ok {
			return h
		}
		for i := range h.Counts {
			if i < len(cur.Counts) {
				cur.Counts[i] += h.Counts[i]
			}
		}
		cur.Sum += h.Sum
		cur.Count += h.Count
		return cur
	})
}

// mergeSection folds src into *dst key by key. *dst may be nil — a JSON
// decode leaves an omitted section nil — and is made on demand.
func mergeSection[V any](dst *map[string]V, src map[string]V, fold func(cur V, ok bool, v V) V) {
	if *dst == nil && len(src) > 0 {
		*dst = map[string]V{}
	}
	for k, v := range src {
		cur, ok := (*dst)[k]
		(*dst)[k] = fold(cur, ok, v)
	}
}

// indentedJSON is the encoding of a snapshot for the /metrics scrape:
// encoding/json, which sorts map keys, indented and newline-terminated — so
// repeated scrapes of an idle registry are byte-identical and diff cleanly. Sections with no entries are
// omitted; the empty snapshot is "{}".
func (s *MetricsSnapshot) indentedJSON() []byte {
	out, _ := json.MarshalIndent(s, "", "  ") // maps of ints, slices and structs: cannot fail
	return append(out, '\n')
}

// SortedKeys returns map keys in deterministic order, for rendering.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
