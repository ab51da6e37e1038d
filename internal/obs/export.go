package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Trace export, in one file format: Chrome trace_event JSON (the "JSON object
// format": {"traceEvents": [...]}), loadable in chrome://tracing and Perfetto
// and read back by dmgm-trace. Each rank becomes a process (pid = rank) so
// the per-rank timelines stack vertically; driver-side spans live under pid =
// DriverPID. The registry snapshot rides along under the top-level
// "dmgmMetrics" key, which trace viewers ignore but dmgm-trace consumes.
// (OTLP, the other exporter, pushes to a collector — otlp.go.)
//
// A multi-process (-launch) job writes one shard per worker; shards are the
// same TraceFile shape and merge by event concatenation + metrics summation
// (see mergeShards). Wall-clock timestamps keep shards aligned.

// DriverPID is the Chrome-trace pid under which driver spans are filed.
const DriverPID = 1 << 20

// TraceEvent is one Chrome trace_event entry.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ArgInt reads a numeric event argument, tolerating the float64 that JSON
// round-trips produce.
func (e TraceEvent) ArgInt(key string) int64 {
	switch v := e.Args[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// TraceFile is the on-disk trace shape (Chrome JSON object format plus the
// metrics sidecar).
type TraceFile struct {
	Events  []TraceEvent     `json:"traceEvents"`
	Metrics *MetricsSnapshot `json:"dmgmMetrics,omitempty"`
}

// eventOf converts a span; driver spans file under DriverPID with the
// process-local tid so merged launch shards stay distinguishable.
func eventOf(s Span, driverTID int) TraceEvent {
	e := TraceEvent{
		Name: s.Name,
		Cat:  "phase",
		Ph:   "X",
		TS:   float64(s.Start) / 1e3,
		Dur:  float64(s.Dur) / 1e3,
		PID:  s.Rank,
		TID:  0,
	}
	if s.Detail {
		e.Cat = "detail"
	}
	if s.Rank == DriverRank {
		e.PID = DriverPID
		e.TID = driverTID
	}
	if s.N != 0 || s.Msgs != 0 || s.Bytes != 0 {
		e.Args = map[string]any{"n": s.N, "msgs": s.Msgs, "bytes": s.Bytes}
	}
	return e
}

// WriteChrome writes the Chrome-trace JSON for the given ranks (plus the
// driver tracer), embedding the registry snapshot. driverTID distinguishes
// driver spans of different worker processes after a shard merge; pass 0 for
// single-process runs.
func (o *Observer) WriteChrome(w io.Writer, ranks []int, driverTID int) error {
	var events []TraceEvent
	for _, r := range ranks {
		t := o.Tracer(r)
		spans := t.Spans()
		for _, s := range spans {
			events = append(events, eventOf(s, driverTID))
		}
		if dropped := t.Recorded() - uint64(len(spans)); dropped > 0 {
			events = append(events, TraceEvent{
				Name: "obs.spans_dropped", Ph: "C", TS: 0, PID: r, TID: 0,
				Args: map[string]any{"dropped": int64(dropped)},
			})
		}
	}
	for _, s := range o.Driver().Spans() {
		events = append(events, eventOf(s, driverTID))
	}
	// Name the per-rank processes so viewers label the timeline rows. The
	// list starts non-nil: a loadable file even when empty.
	seen := map[int]bool{}
	meta := []TraceEvent{}
	for _, e := range events {
		if !seen[e.PID] {
			seen[e.PID] = true
			name := fmt.Sprintf("rank %d", e.PID)
			if e.PID == DriverPID {
				name = "driver"
			}
			meta = append(meta,
				TraceEvent{Name: "process_name", Ph: "M", PID: e.PID, TID: e.TID,
					Args: map[string]any{"name": name}},
				TraceEvent{Name: "process_sort_index", Ph: "M", PID: e.PID, TID: e.TID,
					Args: map[string]any{"sort_index": int64(e.PID)}})
		}
	}
	tf := TraceFile{Events: append(meta, events...)}
	if o != nil {
		tf.Metrics = o.Registry().Snapshot()
	}
	return json.NewEncoder(w).Encode(&tf)
}

// WriteTraceFile writes the Chrome-trace JSON for the given ranks to path.
func (o *Observer) WriteTraceFile(path string, ranks []int, driverTID int) error {
	return writeFile(path, func(w io.Writer) error { return o.WriteChrome(w, ranks, driverTID) })
}

// writeFile creates path and fills it through encode, reporting the first of
// the create, encode and close errors.
func writeFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encode(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadTraceFile loads a trace written by WriteTraceFile or a shard merge.
func ReadTraceFile(path string) (*TraceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("obs: parsing %s: %w", path, err)
	}
	return &tf, nil
}

// shardPath names the per-worker trace shard for one rank.
func shardPath(path string, rank int) string {
	return fmt.Sprintf("%s.rank%d", path, rank)
}

// mergeShards combines the per-worker trace shards path.rank0..path.rank(p-1)
// into path: trace events concatenate (ordered by process, then time),
// metrics snapshots merge. Only once the merged file is written and closed
// are the shards removed — a merge that fails leaves every worker's output on
// disk. Missing or unreadable shards (a worker that died before writing) do
// not stop the merge: the file is written from what exists and the error
// lists them.
func mergeShards(path string, p int) error {
	merged := TraceFile{Events: []TraceEvent{}, Metrics: (*Registry)(nil).Snapshot()}
	var folded []string
	var missing []int
	for r := 0; r < p; r++ {
		shard := shardPath(path, r)
		tf, err := ReadTraceFile(shard)
		if err != nil {
			missing = append(missing, r)
			continue
		}
		merged.Events = append(merged.Events, tf.Events...)
		merged.Metrics.Merge(tf.Metrics)
		folded = append(folded, shard)
	}
	sort.SliceStable(merged.Events, func(i, j int) bool {
		if merged.Events[i].PID != merged.Events[j].PID {
			return merged.Events[i].PID < merged.Events[j].PID
		}
		return merged.Events[i].TS < merged.Events[j].TS
	})
	if err := writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(&merged) }); err != nil {
		return fmt.Errorf("obs: merging shards into %s: %w (the shards are left in place)", path, err)
	}
	for _, shard := range folded {
		os.Remove(shard) //nolint:errcheck // a leftover shard is clutter, not data loss
	}
	if len(missing) > 0 {
		return fmt.Errorf("obs: %s: shards missing for ranks %v", path, missing)
	}
	return nil
}
