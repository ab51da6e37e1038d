package obs

// Observer bundles the per-rank tracers and the shared metrics registry of
// one run. A nil Observer is the disabled state: every accessor returns nil
// and the nil instruments make all instrumentation free.
type Observer struct {
	tracers []*Tracer
	driver  *Tracer
	reg     *Registry
}

// DefaultSpanCapacity is the per-rank ring size when the caller does not
// choose one: enough for tens of thousands of outer iterations / supersteps
// at ~100 bytes per span.
const DefaultSpanCapacity = 1 << 16

// NewObserver creates an observer for a job of the given rank count.
// spanCap is the per-rank ring capacity; 0 selects DefaultSpanCapacity, and
// a negative value disables tracing (metrics only).
func NewObserver(ranks, spanCap int) *Observer {
	if spanCap == 0 {
		spanCap = DefaultSpanCapacity
	}
	o := &Observer{reg: NewRegistry()}
	o.tracers = make([]*Tracer, ranks)
	if spanCap > 0 {
		for r := range o.tracers {
			o.tracers[r] = NewTracer(r, spanCap)
		}
		o.driver = NewTracer(DriverRank, spanCap)
	}
	return o
}

// Tracer returns rank r's tracer, or nil when disabled.
func (o *Observer) Tracer(r int) *Tracer {
	if o == nil || r < 0 || r >= len(o.tracers) {
		return nil
	}
	return o.tracers[r]
}

// Driver returns the tracer for work outside any rank (IO, partitioning),
// or nil when disabled.
func (o *Observer) Driver() *Tracer {
	if o == nil {
		return nil
	}
	return o.driver
}

// Registry returns the metrics registry, or nil when disabled.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}
