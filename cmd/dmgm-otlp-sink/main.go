// Command dmgm-otlp-sink is a minimal in-memory OTLP/HTTP collector for CI
// and local debugging: it accepts the proto3-JSON trace and metrics pushes
// the runtimes and dmgm-serve emit (-otlp flag), counts what arrived, and
// answers a plain-text summary — enough for a smoke test to assert "the
// service span and the runtime spans landed in one trace" without a real
// collector in the container.
//
// Usage:
//
//	dmgm-otlp-sink -addr 127.0.0.1:4318
//	dmgm-serve -addr :8321 -otlp http://127.0.0.1:4318 ...
//	curl -s 127.0.0.1:4318/summary
//
// The summary lists one line per trace id — span count and the sorted,
// "|"-joined distinct span names — then a metric data-point total and the
// number of spans that arrived with a span id their trace already had (two
// exporters colliding, which a backend would fold into one span):
//
//	trace 0af7651916cd43dd8448eb211c80319c spans=12 names=match.outer|serve.admit|serve.job|...
//	metric_points 84
//	duplicate_span_ids 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

type sink struct {
	mu           sync.Mutex
	spanNames    map[string]map[string]int // trace id -> span name -> count
	spanIDs      map[string]bool           // trace id + span id
	duplicates   int
	metricPoints int
	pushes       int
}

func (s *sink) handleTraces(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req obs.OTLPTraceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.pushes++
	for _, rs := range req.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				m := s.spanNames[sp.TraceID]
				if m == nil {
					m = map[string]int{}
					s.spanNames[sp.TraceID] = m
				}
				m[sp.Name]++
				id := sp.TraceID + sp.SpanID
				if s.spanIDs[id] {
					s.duplicates++
				}
				s.spanIDs[id] = true
			}
		}
	}
	s.mu.Unlock()
	w.Write([]byte("{}")) //nolint:errcheck // best-effort ack
}

func (s *sink) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req obs.OTLPMetricsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.pushes++
	s.metricPoints += req.DataPoints()
	s.mu.Unlock()
	w.Write([]byte("{}")) //nolint:errcheck // best-effort ack
}

func (s *sink) handleSummary(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	ids := make([]string, 0, len(s.spanNames))
	for id := range s.spanNames {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		names := s.spanNames[id]
		total := 0
		keys := make([]string, 0, len(names))
		for name, n := range names {
			keys = append(keys, name)
			total += n
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "trace %s spans=%d names=%s\n", id, total, strings.Join(keys, "|"))
	}
	fmt.Fprintf(&b, "metric_points %d\n", s.metricPoints)
	fmt.Fprintf(&b, "duplicate_span_ids %d\n", s.duplicates)
	fmt.Fprintf(&b, "pushes %d\n", s.pushes)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck // summary is advisory
}

func main() {
	addr := flag.String("addr", "127.0.0.1:4318", "listen address (OTLP/HTTP default port is 4318)")
	flag.Parse()
	s := &sink{spanNames: map[string]map[string]int{}, spanIDs: map[string]bool{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.handleTraces)
	mux.HandleFunc("POST /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /summary", s.handleSummary)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-otlp-sink: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dmgm-otlp-sink: listening on http://%s (POST /v1/traces /v1/metrics, GET /summary)\n", ln.Addr())
	if err := http.Serve(ln, mux); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-otlp-sink: %v\n", err)
		os.Exit(1)
	}
}
