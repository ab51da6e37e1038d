// Command dmgm-serve is the long-running dmgm job daemon: it accepts
// matching and coloring jobs over HTTP JSON (POST /v1/jobs, see
// docs/PROTOCOL.md §6) and executes them on a pool of reusable in-process
// mpi worlds, with a bounded admission queue (429 + Retry-After under
// overload), per-job deadlines, an LRU result cache keyed by graph
// fingerprint, and graceful drain on SIGTERM.
//
// Large graphs ship once through the resumable chunked upload API
// (/v1/uploads, docs/PROTOCOL.md §7) into a bounded content-addressed
// graph store; jobs then reference them by fingerprint (graph_ref), and a
// warm partition cache skips re-partitioning across jobs over the same
// stored graph.
//
// Admission is per tenant (docs/PROTOCOL.md §8): callers name their tenant
// with the X-DMGM-Tenant header, -tenants loads per-tenant weights and
// quotas from a JSON file, and SIGHUP reloads that file live without
// dropping queued jobs.
//
// Usage:
//
//	dmgm-serve -addr :8321
//	dmgm-serve -addr :8321 -workers 4 -queue 64 -cache 256
//	dmgm-serve -addr :8321 -store-mb 1024 -upload-ttl 5m
//	dmgm-serve -addr :8321 -store-dir /var/lib/dmgm/store  # graph_refs survive restarts
//	dmgm-serve -addr :8321 -tenants tenants.json   # per-tenant quotas
//	dmgm-serve -addr :8321 -http :9321             # live obs endpoint + /debug/pprof
//	dmgm-serve -addr :8321 -otlp http://localhost:4318
//	dmgm-serve -addr :8321 -trace-slow-ms 250 -access-log access.jsonl
//
// Every job runs under a W3C trace (docs/PROTOCOL.md §9): the caller's
// traceparent is honored or a trace id minted, echoed in the X-DMGM-Trace
// answer header and the trace_id response field. Slow and failed jobs keep
// their span tree in a bounded ring, served at GET /v1/jobs/{id}/trace and
// rendered by dmgm-trace -job. With -otlp set, traces stream to the
// collector as jobs finish and metrics push periodically — a continuous
// pipeline, not an exit-time dump. Of the observability flags the CLIs
// share, the daemon takes the two it reads (-http, -otlp): its spans are per
// job, so there is no -trace file, and its metrics stream is labelled by
// DMGM_OTLP_RUN or a generated run id.
//
// Every flag names its reader — a bench/ workload, a CI step or an
// operator procedure — in docs/OPERATIONS.md's flag reference.
//
// Submit with curl (inline graph, text edge-list format):
//
//	curl -s localhost:8321/v1/jobs -d '{
//	  "algorithm": "match", "ranks": 2,
//	  "graph": "g 3 2\ne 0 1 1.5\ne 1 2 2\n"
//	}'
//
// Drive it at scale with dmgm-load.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	of := &obs.Flags{} // the two of the CLIs' obs flags the daemon reads
	flag.StringVar(&of.HTTP, "http", "", "also serve live observability on this address: /metrics (as the job port does), /debug/pprof")
	flag.StringVar(&of.OTLP, "otlp", "", "stream finished jobs' span trees and push the metrics registry to this OTLP/HTTP collector endpoint (e.g. http://localhost:4318)")
	var (
		addr         = flag.String("addr", "127.0.0.1:8321", "HTTP listen address for the job API")
		queueLen     = flag.Int("queue", 32, "admission queue bound; beyond it submissions are shed with 429")
		workers      = flag.Int("workers", 2, "jobs executed concurrently (each drives one world of <ranks> goroutines)")
		timeout      = flag.Duration("timeout", 2*time.Minute, "default per-job deadline (queue wait + run); requests may shorten it")
		cacheEntries = flag.Int("cache", 128, "result-cache entries (negative disables)")
		maxRanks     = flag.Int("max-ranks", 64, "per-job rank bound")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before abandoning queued jobs")
		storeMB      = flag.Int64("store-mb", 512, "content-addressed graph store budget, MiB; shares retained for by-reference jobs get as much again")
		storeDir     = flag.String("store-dir", "", "persist deposited graphs (canonical DMGB) under this directory; graph_refs then survive restarts (docs/PROTOCOL.md §7)")
		storeDiskMB  = flag.Int64("store-disk-mb", 4096, "spill-directory byte budget, MiB; least recently used spill files beyond it are deleted (with -store-dir)")
		partCache    = flag.Int("part-cache", 64, "warm partition cache entries (negative disables)")
		uploadTTL    = flag.Duration("upload-ttl", 2*time.Minute, "idle upload sessions expire after this")
		uploadMB     = flag.Int64("upload-mb", 1024, "per-upload-session byte budget, MiB")
		tenantsPath  = flag.String("tenants", "", "per-tenant quota config, JSON (docs/OPERATIONS.md); SIGHUP reloads it live")
		maxTenants   = flag.Int("max-tenants", 64, "distinct tenant queues; further tenant names fold into the default queue")
		otlpInterval = flag.Duration("otlp-interval", 10*time.Second, "periodic OTLP metrics push interval (with -otlp)")
		otlpDrain    = flag.Duration("otlp-drain", 5*time.Second, "OTLP delivery-queue drain budget at shutdown (with -otlp)")
		traceSlowMS  = flag.Int64("trace-slow-ms", 1000, "retain the span tree of jobs slower than this, ms (0 retains every job, -1 none; errors always retained unless -1), the newest 256; serve them at GET /v1/jobs/{id}/trace")
		accessLog    = flag.String("access-log", "", "structured JSON access log path, one line per request (\"-\" = stderr)")
		noTracing    = flag.Bool("no-tracing", false, "disable request-scoped tracing entirely (results stay byte-identical either way)")
	)
	flag.Parse()

	var policies *service.TenantPolicies
	if *tenantsPath != "" {
		p, err := service.LoadTenantPolicies(*tenantsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
			os.Exit(1)
		}
		policies = p
	}

	// The daemon always carries a metrics registry: /metrics is part of the
	// service surface. Its spans are per job (the service's own tracers), so
	// the observer holds no rings.
	obsr := obs.NewObserver(0, -1)

	// The access log is opened before the server so a bad path fails fast.
	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		accessW = f
	}

	srv, err := service.NewServer(service.Config{
		QueueLen:              *queueLen,
		Workers:               *workers,
		DefaultTimeout:        *timeout,
		CacheEntries:          *cacheEntries,
		MaxRanks:              *maxRanks,
		StoreBytes:            *storeMB << 20,
		StoreDir:              *storeDir,
		StoreDiskBytes:        *storeDiskMB << 20,
		PartitionCacheEntries: *partCache,
		UploadTTL:             *uploadTTL,
		MaxUploadBytes:        *uploadMB << 20,
		Policies:              policies,
		MaxTenants:            *maxTenants,
		Observer:              obsr,
		OTLPEndpoint:          of.OTLP,
		OTLPInterval:          *otlpInterval,
		OTLPDrainTimeout:      *otlpDrain,
		RunID:                 of.RunID(),
		DisableTracing:        *noTracing,
		TraceSlowMillis:       *traceSlowMS,
		AccessLog:             accessW,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
		os.Exit(1)
	}
	srv.Start()

	// SIGHUP reloads the tenant quota file live. A bad file keeps the
	// running policies — a reload must never degrade a healthy daemon.
	if *tenantsPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				p, err := service.LoadTenantPolicies(*tenantsPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dmgm-serve: tenants reload failed, keeping current policies: %v\n", err)
					continue
				}
				srv.SetPolicies(p)
				fmt.Fprintf(os.Stderr, "dmgm-serve: reloaded tenant policies from %s\n", *tenantsPath)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // Shutdown's error is the one that matters
	fmt.Fprintf(os.Stderr, "dmgm-serve: listening on http://%s (POST /v1/jobs, /v1/uploads, GET /healthz /metrics)\n", ln.Addr())

	if of.HTTP != "" {
		liveAddr, err := obs.ServeLive(of.HTTP, srv.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dmgm-serve: live observability on http://%s (watch with: dmgm-trace -watch %s)\n", liveAddr, liveAddr)
	}

	// Graceful drain: stop admitting (healthz flips to 503 so balancers pull
	// the instance), let queued and running jobs finish within the budget,
	// then stop the workers, which flushes the -otlp pipeline.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-sigCtx.Done()
	fmt.Fprintln(os.Stderr, "dmgm-serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-serve: %v\n", err)
		code = 1
	}
	srv.Stop()
	hs.Shutdown(context.Background()) //nolint:errcheck // listeners are going away with the process
	fmt.Fprintln(os.Stderr, "dmgm-serve: drained")
	os.Exit(code)
}
