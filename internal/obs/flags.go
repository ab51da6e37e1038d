package obs

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
)

// Flags is the standard observability flag block of dmgm-match and
// dmgm-color: where to write the trace, where to serve the live endpoint, and
// where to push OTLP.
type Flags struct {
	// Trace is the trace output path ("" = off), Chrome trace_event JSON; the
	// registry snapshot rides along under "dmgmMetrics".
	Trace string
	// HTTP is the live-observability listen address ("" = off): /snapshot
	// serves the per-rank per-tag-family traffic JSON that dmgm-trace -watch
	// polls, alongside /metrics and /debug/pprof. Multi-process workers
	// offset a fixed port by their rank so the fleet never collides.
	HTTP string
	// SpanCap is the per-rank span ring capacity (0 = default).
	SpanCap int
	// OTLP is the OTLP/HTTP collector base endpoint ("" = off), e.g.
	// http://localhost:4318; spans go to /v1/traces, the registry to
	// /v1/metrics, after the run completes.
	OTLP string
	// OTLPRun is the run id grouping this job's spans into one trace.
	// Empty means: inherit DMGM_OTLP_RUN (set by the -launch supervisor so
	// every worker shares one trace) or generate a fresh id.
	OTLPRun string
}

// otlpRunEnv carries the run id from the -launch supervisor to its workers.
const otlpRunEnv = "DMGM_OTLP_RUN"

// RegisterFlags installs the observability flag block on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a span trace to this path (Chrome trace_event JSON; read it with dmgm-trace, chrome://tracing or Perfetto)")
	fs.StringVar(&f.HTTP, "http", "", "serve live observability on this address: /snapshot (per-rank per-tag-family traffic JSON for dmgm-trace -watch), /metrics, /debug/pprof (workers add their rank to a fixed port)")
	fs.IntVar(&f.SpanCap, "trace-spans", 0, "per-rank span ring capacity (0 = 65536; older spans are overwritten)")
	fs.StringVar(&f.OTLP, "otlp", "", "export spans and metrics to this OTLP/HTTP collector endpoint after the run (e.g. http://localhost:4318)")
	fs.StringVar(&f.OTLPRun, "otlp-run", "", "run id grouping OTLP spans into one trace (default: inherited from the launch supervisor, or generated)")
	return f
}

// NewObserver builds the observer the flags describe, or nil when
// observability is off — the nil observer makes all instrumentation free.
func (f *Flags) NewObserver(ranks int) *Observer {
	switch {
	case f.Trace != "" || f.OTLP != "":
		return NewObserver(ranks, f.SpanCap)
	case f.HTTP != "":
		return NewObserver(ranks, -1) // metrics only: no rings
	}
	return nil
}

// RunID resolves the OTLP run id, in precedence order: the -otlp-run flag,
// the DMGM_OTLP_RUN environment variable, a freshly generated id. The
// resolved id is stored back into both the flag and the environment so a
// -launch supervisor calling this before spawning workers hands every worker
// the same id — which is what makes their OTLP exports one shard-consistent
// trace.
func (f *Flags) RunID() string {
	if f.OTLPRun == "" {
		f.OTLPRun = os.Getenv(otlpRunEnv)
	}
	if f.OTLPRun == "" {
		f.OTLPRun = fmt.Sprintf("dmgm-%d-%d", time.Now().UnixNano(), os.Getpid())
	}
	os.Setenv(otlpRunEnv, f.OTLPRun) //nolint:errcheck // best-effort propagation
	return f.OTLPRun
}

// ExportOTLP pushes the observer's spans and metrics to the -otlp endpoint.
// Export is strictly post-run and best-effort: every failure is reported in
// the returned error (for a stderr warning) and never affects the run's
// results. No-op when the flag is unset or the observer is nil.
//
// A process hosting only part of the world is one -launch worker of several
// exporting into the run's one trace, so its driver and registry resources
// and its span ids carry the first rank it hosts: "driver-<rank>" and
// "registry-<rank>", where an in-process run has "driver" and "registry".
func (f *Flags) ExportOTLP(o *Observer, localRanks []int, worldSize int) error {
	if f.OTLP == "" || o == nil {
		return nil
	}
	id := OTLPIdentity{RunID: f.RunID(), WorldSize: worldSize}
	if len(localRanks) > 0 && len(localRanks) < worldSize {
		id.worker = fmt.Sprintf("-%d", localRanks[0])
	}
	exp := NewOTLPExporter(f.OTLP, OTLPOptions{Identity: id, Registry: o.Registry()})
	exp.ExportObserver(o, localRanks)
	err := exp.Close(10 * time.Second)
	if dropped := exp.Dropped(); dropped > 0 {
		if err == nil { // Close drained in time, but batches were dropped along the way
			err = errors.New("delivery failures; see collector logs")
		}
		err = fmt.Errorf("obs: otlp export to %s dropped %d batches (%w)", f.OTLP, dropped, err)
	}
	return err
}

// Write writes the -trace file for the given local ranks. In remote mode (one
// process per rank) each worker writes a per-rank shard that the supervisor
// later merges; otherwise the final file is written directly. rank is this
// process's rank (the shard suffix and the driver tid).
func (f *Flags) Write(o *Observer, localRanks []int, rank int, remote bool) error {
	if o == nil || f.Trace == "" {
		return nil
	}
	path, tid := f.Trace, 0
	if remote {
		path, tid = shardPath(f.Trace, rank), rank
	}
	if err := o.WriteTraceFile(path, localRanks, tid); err != nil {
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return nil
}

// Merge combines the per-worker trace shards of a p-rank launch into the
// final -trace file.
func (f *Flags) Merge(p int) error {
	if f.Trace == "" {
		return nil
	}
	return mergeShards(f.Trace, p)
}

// OffsetAddr resolves an -http listen address for this process: in
// remote mode a fixed port is offset by the rank so every worker of a launch
// gets its own listener; addresses without a fixed numeric port (port 0
// stays 0 — the kernel picks) pass through unchanged.
func OffsetAddr(addr string, rank int, remote bool) string {
	if addr == "" || !remote {
		return addr
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port == 0 {
		return addr
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank))
}
