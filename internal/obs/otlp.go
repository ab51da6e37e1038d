package obs

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// OTLP/JSON encoding: the span ring and the metrics registry mapped onto the
// OpenTelemetry protocol's HTTP/JSON flavor (the proto3 JSON mapping of
// ExportTraceServiceRequest / ExportMetricsServiceRequest), so a run lands in
// any standard backend — Jaeger, Grafana Tempo, Prometheus via an OTLP
// collector — instead of only chrome://tracing and dmgm-trace. The encoding
// is hand-rolled on encoding/json: no OpenTelemetry SDK dependency, and the
// output is deterministic (registry keys via SortedKeys, spans in sequence
// order, ranks ascending) so golden tests can pin the exact bytes.
//
// Mapping:
//
//   - One OTLPResourceSpans / OTLPResourceMetrics per rank, carrying
//     service.name=<service>, dmgm.run, dmgm.rank and dmgm.world_size
//     resource attributes. Under -launch every worker derives the same run id
//     (inherited through the DMGM_OTLP_RUN environment variable), so the
//     shards of one job share one trace; each worker's driver and registry
//     resources are its own (driver-<rank>, registry-<rank>).
//   - Span → OTLP span: traceId is derived from the run id, spanId from
//     (run, worker, rank, seq); start/end nanos carry over; N/Msgs/Bytes/Detail/Seq
//     become dmgm.* attributes and the phase name doubles as dmgm.phase.
//   - Counter → Sum (monotonic, cumulative), Gauge → Gauge, Vec → Sum with
//     one data point per rank (attribute "rank"), Histogram → Histogram with
//     explicitBounds/bucketCounts. Registry keys carrying a tag family
//     (mpi.sent_bytes.color, …; SplitFamilyKey) additionally get a "family"
//     data point attribute so backends can group by protocol phase.
//
// Per the proto3 JSON mapping, 64-bit integers (timestamps, counts, intValue)
// are encoded as JSON strings, and trace/span ids as lowercase hex.

// OTLPValue is a proto3-JSON AnyValue (exactly one field set).
type OTLPValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
}

// OTLPKeyValue is one attribute.
type OTLPKeyValue struct {
	Key   string    `json:"key"`
	Value OTLPValue `json:"value"`
}

func otlpStr(key, v string) OTLPKeyValue {
	return OTLPKeyValue{Key: key, Value: OTLPValue{StringValue: &v}}
}

func otlpInt(key string, v int64) OTLPKeyValue {
	s := strconv.FormatInt(v, 10)
	return OTLPKeyValue{Key: key, Value: OTLPValue{IntValue: &s}}
}

func otlpBool(key string, v bool) OTLPKeyValue {
	return OTLPKeyValue{Key: key, Value: OTLPValue{BoolValue: &v}}
}

// OTLPResource identifies the entity that produced the telemetry.
type OTLPResource struct {
	Attributes []OTLPKeyValue `json:"attributes"`
}

// OTLPScope is the instrumentation scope.
type OTLPScope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// OTLPSpan is one span in the proto3 JSON mapping.
type OTLPSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []OTLPKeyValue `json:"attributes,omitempty"`
}

// OTLPScopeSpans groups spans of one scope.
type OTLPScopeSpans struct {
	Scope OTLPScope  `json:"scope"`
	Spans []OTLPSpan `json:"spans"`
}

// OTLPResourceSpans groups one resource's scopes.
type OTLPResourceSpans struct {
	Resource   OTLPResource     `json:"resource"`
	ScopeSpans []OTLPScopeSpans `json:"scopeSpans"`
}

// OTLPTraceRequest is the body POSTed to <endpoint>/v1/traces.
type OTLPTraceRequest struct {
	ResourceSpans []OTLPResourceSpans `json:"resourceSpans"`
}

// OTLPNumberPoint is one Sum/Gauge data point (integer-valued).
type OTLPNumberPoint struct {
	Attributes        []OTLPKeyValue `json:"attributes,omitempty"`
	StartTimeUnixNano string         `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string         `json:"timeUnixNano"`
	AsInt             string         `json:"asInt"`
}

// OTLPSum is a monotonic cumulative sum metric.
type OTLPSum struct {
	DataPoints             []OTLPNumberPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

// OTLPGauge is a last-value metric.
type OTLPGauge struct {
	DataPoints []OTLPNumberPoint `json:"dataPoints"`
}

// OTLPHistogramPoint is one histogram data point.
type OTLPHistogramPoint struct {
	Attributes        []OTLPKeyValue `json:"attributes,omitempty"`
	StartTimeUnixNano string         `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string         `json:"timeUnixNano"`
	Count             string         `json:"count"`
	Sum               float64        `json:"sum"`
	BucketCounts      []string       `json:"bucketCounts"`
	ExplicitBounds    []float64      `json:"explicitBounds"`
}

// OTLPHistogram is a cumulative histogram metric.
type OTLPHistogram struct {
	DataPoints             []OTLPHistogramPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

// OTLPMetric is one named metric (exactly one data field set).
type OTLPMetric struct {
	Name      string         `json:"name"`
	Sum       *OTLPSum       `json:"sum,omitempty"`
	Gauge     *OTLPGauge     `json:"gauge,omitempty"`
	Histogram *OTLPHistogram `json:"histogram,omitempty"`
}

// OTLPScopeMetrics groups metrics of one scope.
type OTLPScopeMetrics struct {
	Scope   OTLPScope    `json:"scope"`
	Metrics []OTLPMetric `json:"metrics"`
}

// OTLPResourceMetrics groups one resource's scopes.
type OTLPResourceMetrics struct {
	Resource     OTLPResource       `json:"resource"`
	ScopeMetrics []OTLPScopeMetrics `json:"scopeMetrics"`
}

// OTLPMetricsRequest is the body POSTed to <endpoint>/v1/metrics.
type OTLPMetricsRequest struct {
	ResourceMetrics []OTLPResourceMetrics `json:"resourceMetrics"`
}

// DataPoints counts the request's data points over every metric shape the
// encoder emits — the item count of the exporter's and the sink's accounting.
func (r *OTLPMetricsRequest) DataPoints() (n int) {
	for _, rm := range r.ResourceMetrics {
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				switch {
				case m.Sum != nil:
					n += len(m.Sum.DataPoints)
				case m.Gauge != nil:
					n += len(m.Gauge.DataPoints)
				case m.Histogram != nil:
					n += len(m.Histogram.DataPoints)
				}
			}
		}
	}
	return n
}

// Enum values from the OTLP proto: span kind and aggregation temporality.
const (
	otlpSpanKindInternal = 1
	otlpTemporalityCumul = 2
	otlpScopeName        = "repro/internal/obs"
	otlpTracesPath       = "/v1/traces"
	otlpMetricsPath      = "/v1/metrics"
	defaultOTLPService   = "dmgm"
	otlpMetricsRankKey   = -2 // pseudo-rank resource for scalar registry metrics
)

// OTLPIdentity pins the resource attributes and id derivation of one run.
type OTLPIdentity struct {
	// RunID seeds the trace id; every worker of one job must share it so the
	// shards land in one trace (see Flags.OTLPRunID).
	RunID string
	// Service is the service.name resource attribute ("" = "dmgm").
	Service string
	// WorldSize is the job's rank count (0 = omitted).
	WorldSize int
	// TraceIDHex, when set (32 lowercase hex chars), is used verbatim as the
	// trace id instead of deriving one from RunID — how the serving layer
	// lands a job's runtime spans inside the request's W3C trace.
	TraceIDHex string
	// ParentSpanHex, when set (16 lowercase hex chars), becomes the
	// parentSpanId of every span whose Parent token is 0 — hanging a whole
	// span batch (a runtime's flat per-rank phases) under one enclosing span.
	ParentSpanHex string
	// worker tells one -launch worker's driver and registry resources and
	// span ids from its peers' in the run's shared trace: "-<rank>", set by
	// Flags.ExportOTLP; empty for a process that hosts the whole world.
	worker string
}

// TraceID derives the 16-byte OTLP trace id from the run id, hex-encoded,
// unless TraceIDHex pins one explicitly.
func (id OTLPIdentity) TraceID() string {
	if id.TraceIDHex != "" {
		return id.TraceIDHex
	}
	h := fnv.New128a()
	h.Write([]byte("dmgm-trace:" + id.RunID))
	sum := h.Sum(nil)
	if allZero(sum) {
		sum[0] = 1 // the all-zero id is invalid in OTLP
	}
	return hex.EncodeToString(sum)
}

// SpanID derives the 8-byte OTLP span id for one recorded span, hex-encoded.
// It is deterministic in (run, worker, rank, seq), so a re-export of the same
// spans produces the same ids.
func (id OTLPIdentity) SpanID(rank int, seq uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "dmgm-span:%s%s:%d:%d", id.RunID, id.worker, rank, seq)
	sum := h.Sum(nil)
	if allZero(sum) {
		sum[0] = 1
	}
	return hex.EncodeToString(sum)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// resourceFor builds the per-rank resource. Driver spans use DriverRank and
// scalar registry metrics the pseudo-rank otlpMetricsRankKey.
func (id OTLPIdentity) resourceFor(rank int) OTLPResource {
	attrs := []OTLPKeyValue{
		otlpStr("service.name", cmp.Or(id.Service, defaultOTLPService)),
		otlpStr("dmgm.run", id.RunID),
	}
	switch rank {
	case DriverRank:
		attrs = append(attrs, otlpStr("service.instance.id", "driver"+id.worker))
	case otlpMetricsRankKey:
		attrs = append(attrs, otlpStr("service.instance.id", "registry"+id.worker))
	default:
		attrs = append(attrs,
			otlpStr("service.instance.id", fmt.Sprintf("rank-%d", rank)),
			otlpInt("dmgm.rank", int64(rank)))
	}
	if id.WorldSize > 0 {
		attrs = append(attrs, otlpInt("dmgm.world_size", int64(id.WorldSize)))
	}
	return OTLPResource{Attributes: attrs}
}

func unano(v int64) string { return strconv.FormatInt(v, 10) }

// EncodeOTLPSpans maps completed spans onto an OTLP trace request: one
// resource per rank (ranks ascending, driver last), spans in sequence order
// within a rank. Open spans (Dur < 0) are skipped.
func EncodeOTLPSpans(spans []Span, id OTLPIdentity) *OTLPTraceRequest {
	byRank := map[int][]Span{}
	var ranks []int
	for _, s := range spans {
		if s.Dur < 0 {
			continue
		}
		if _, ok := byRank[s.Rank]; !ok {
			ranks = append(ranks, s.Rank)
		}
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	// Worker ranks ascending, the driver (rank -1) after them, matching the
	// Chrome export's process ordering.
	sort.Slice(ranks, func(i, j int) bool { return uint(ranks[i]) < uint(ranks[j]) })
	traceID := id.TraceID()
	req := &OTLPTraceRequest{ResourceSpans: []OTLPResourceSpans{}}
	for _, r := range ranks {
		group := byRank[r]
		out := make([]OTLPSpan, 0, len(group))
		for _, s := range group {
			attrs := []OTLPKeyValue{
				otlpStr("dmgm.phase", s.Name),
				otlpInt("dmgm.seq", int64(s.Seq)),
			}
			if s.Detail {
				attrs = append(attrs, otlpBool("dmgm.detail", true))
			}
			if s.N != 0 {
				attrs = append(attrs, otlpInt("dmgm.n", s.N))
			}
			if s.Msgs != 0 || s.Bytes != 0 {
				attrs = append(attrs, otlpInt("dmgm.msgs", s.Msgs), otlpInt("dmgm.bytes", s.Bytes))
			}
			parent := id.ParentSpanHex
			if s.Parent != 0 {
				parent = id.SpanID(s.Rank, s.Parent)
			}
			out = append(out, OTLPSpan{
				TraceID:           traceID,
				SpanID:            id.SpanID(s.Rank, s.Seq),
				ParentSpanID:      parent,
				Name:              s.Name,
				Kind:              otlpSpanKindInternal,
				StartTimeUnixNano: unano(s.Start),
				EndTimeUnixNano:   unano(s.Start + s.Dur),
				Attributes:        attrs,
			})
		}
		req.ResourceSpans = append(req.ResourceSpans, OTLPResourceSpans{
			Resource:   id.resourceFor(r),
			ScopeSpans: []OTLPScopeSpans{{Scope: OTLPScope{Name: otlpScopeName}, Spans: out}},
		})
	}
	return req
}

// EncodeOTLPMetrics maps a registry snapshot onto an OTLP metrics request.
// All metrics land under one registry resource; per-rank vectors become one
// data point per rank with a "rank" attribute, and family-suffixed keys get a
// "family" attribute alongside. now is the data-point timestamp (cumulative
// since start, which is reported as startNanos when nonzero). Keys are
// emitted in SortedKeys order so the encoding is byte-deterministic.
func EncodeOTLPMetrics(s *MetricsSnapshot, id OTLPIdentity, startNanos, now int64) *OTLPMetricsRequest {
	if s == nil {
		s = (*Registry)(nil).Snapshot()
	}
	ts, start := unano(now), ""
	if startNanos > 0 {
		start = unano(startNanos)
	}
	var metrics []OTLPMetric
	point := func(v int64, attrs ...OTLPKeyValue) OTLPNumberPoint {
		return OTLPNumberPoint{Attributes: attrs, StartTimeUnixNano: start, TimeUnixNano: ts, AsInt: strconv.FormatInt(v, 10)}
	}
	famAttrs := func(key string, more ...OTLPKeyValue) []OTLPKeyValue {
		if _, fam := SplitFamilyKey(key); fam != "" {
			return append(more, otlpStr("family", fam))
		}
		return more
	}
	sum := func(name string, points []OTLPNumberPoint) OTLPMetric {
		return OTLPMetric{Name: name, Sum: &OTLPSum{DataPoints: points, AggregationTemporality: otlpTemporalityCumul, IsMonotonic: true}}
	}
	for _, k := range SortedKeys(s.Counters) {
		metrics = append(metrics, sum(k, []OTLPNumberPoint{point(s.Counters[k], famAttrs(k)...)}))
	}
	for _, k := range SortedKeys(s.Gauges) {
		metrics = append(metrics, OTLPMetric{Name: k, Gauge: &OTLPGauge{
			DataPoints: []OTLPNumberPoint{point(s.Gauges[k])},
		}})
	}
	for _, k := range SortedKeys(s.PerRank) {
		vals := s.PerRank[k]
		points := make([]OTLPNumberPoint, 0, len(vals))
		for r, v := range vals {
			points = append(points, point(v, famAttrs(k, otlpInt("rank", int64(r)))...))
		}
		metrics = append(metrics, sum(k, points))
	}
	for _, k := range SortedKeys(s.Histograms) {
		h := s.Histograms[k]
		bounds := make([]float64, len(h.Bounds))
		for i, b := range h.Bounds {
			bounds[i] = float64(b)
		}
		buckets := make([]string, len(h.Counts))
		for i, c := range h.Counts {
			buckets[i] = strconv.FormatInt(c, 10)
		}
		metrics = append(metrics, OTLPMetric{Name: k, Histogram: &OTLPHistogram{
			DataPoints: []OTLPHistogramPoint{{
				StartTimeUnixNano: start,
				TimeUnixNano:      ts,
				Count:             strconv.FormatInt(h.Count, 10),
				Sum:               float64(h.Sum),
				BucketCounts:      buckets,
				ExplicitBounds:    bounds,
			}},
			AggregationTemporality: otlpTemporalityCumul,
		}})
	}
	if metrics == nil {
		metrics = []OTLPMetric{}
	}
	return &OTLPMetricsRequest{ResourceMetrics: []OTLPResourceMetrics{{
		Resource:     id.resourceFor(otlpMetricsRankKey),
		ScopeMetrics: []OTLPScopeMetrics{{Scope: OTLPScope{Name: otlpScopeName}, Metrics: metrics}},
	}}}
}
