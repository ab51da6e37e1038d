package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/service/client"
)

// clients is the closed loop's width: callers that each wait for their reply,
// one per core, each on its own keep-alive connection.
const clients = 2

// server is a dmgm-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer // its standard error, shown if it dies
}

// startServer launches the daemon with its default flags plus extra, on a
// port found by binding :0 first. The child dies with ctx and, on Linux, with
// this process.
func startServer(ctx context.Context, bin string, extra ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr}
	s.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, extra...)...)
	s.cmd.Stderr = &s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	if err := client.New(s.base).WaitReady(ctx, 20*time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\n%s", err, s.log.String())
	}
	return s, nil
}

// stop asks the daemon to drain, waits for it, and kills it if it lingers.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }() //nolint:errcheck // exit status is not a result
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-done
	}
}

// serveInput is one graph a service workload sends, with its references.
type serveInput struct {
	g         *graph.Graph
	text      string // the inline text form
	matesText string // WriteMates of the sequential matching
	refWeight float64
	refCard   int
	maxDeg    int
	fill      [2]*service.Response // serve_hit_small: the answers that filled the cache
}

type serveRun struct {
	name      string
	ctx       context.Context
	bin       string
	extraArgs []string
	sz        sizes
	seed      uint64

	srv     *server
	hc      *http.Client
	cl      *client.Client
	inputs  []*serveInput
	ref     string // serve_warm_ref: the uploaded graph's fingerprint
	upload  *client.UploadStats
	nextJob atomic.Int64
	errs    atomic.Int32

	delta map[string]int64 // /metrics counter deltas over the last window
}

func (s *serveRun) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}

func (s *serveRun) peakRSSMB() (float64, error) { return vmHWM(s.srv.cmd.Process.Pid) }

func (s *serveRun) generate() error {
	s.inputs = nil
	add := func(g *graph.Graph, err error) error {
		if err != nil {
			return err
		}
		in := &serveInput{g: g}
		if s.name != "serve_warm_ref" {
			var sb strings.Builder
			if err := graph.WriteText(&sb, g); err != nil {
				return err
			}
			in.text = sb.String()
		}
		s.inputs = append(s.inputs, in)
		return nil
	}
	switch s.name {
	case "serve_cold_inline":
		for i := uint64(0); i < 8; i++ {
			if err := add(gen.Circuit(s.sz.circuit, s.sz.circuit, 0.45, true, s.seed+i)); err != nil {
				return err
			}
		}
	case "serve_warm_ref":
		return add(gen.Grid2D(s.sz.grid, s.sz.grid, true, s.seed))
	case "serve_hit_small":
		for i := uint64(0); i < 8; i++ {
			if err := add(gen.ErdosRenyi(s.sz.erN, s.sz.erM, true, s.seed+i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *serveRun) setup() (err error) {
	if err := s.generate(); err != nil {
		return err
	}
	if s.srv, err = startServer(s.ctx, s.bin, s.extraArgs...); err != nil {
		return err
	}
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	s.cl = client.New(s.srv.base)
	s.cl.HTTP = s.hc
	if s.name == "serve_warm_ref" {
		if s.ref, s.upload, err = s.cl.UploadGraph(s.ctx, s.inputs[0].g, client.UploadOptions{}); err != nil {
			return fmt.Errorf("upload: %w", err)
		}
	}
	// Warm-up: the first jobs create the pooled worlds, compute the partition
	// serve_warm_ref reuses, and fill the result cache serve_hit_small hits.
	s.nextJob.Store(0)
	warmup := 4
	if s.name == "serve_hit_small" {
		warmup = 2 * len(s.inputs) // every (input, kind) the window will ask for
	}
	for i := 0; i < warmup; i++ {
		job, kind := s.nextJob.Add(1)-1, i%2
		if s.name == "serve_hit_small" {
			job = int64(i / 2)
		}
		req, in := s.request(job, kind)
		resp, _, _, err := s.submit(nil, 0, 0, req)
		if err != nil {
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
		if s.name == "serve_hit_small" {
			in.fill[kind] = resp
		}
	}
	return nil
}

// reference computes what the checks compare against, and checks the answers
// that filled serve_hit_small's cache, which every later hit must repeat.
func (s *serveRun) reference() error {
	for i, in := range s.inputs {
		ref := matching.LocallyDominant(in.g)
		var sb strings.Builder
		if err := matching.WriteMates(&sb, ref); err != nil {
			return err
		}
		in.matesText, in.refWeight, in.refCard, in.maxDeg = sb.String(), ref.Weight(in.g), ref.Cardinality(), in.g.MaxDegree()
		for kind, fill := range in.fill {
			if fill == nil {
				continue
			}
			fill.Cached = true // what a repeat of it will say
			if err := s.check(in, kind, fill); err != nil {
				return fmt.Errorf("graph %d: cache-filling %s answer: %w", i, kindNames[kind], err)
			}
			if kind == kindColor {
				if err := verifyColors(in.g, fill.Result); err != nil {
					return fmt.Errorf("graph %d: cache-filling color answer: %w", i, err)
				}
			}
		}
	}
	return nil
}

func verifyColors(g *graph.Graph, result string) error {
	colors, err := coloring.ReadColors(strings.NewReader(result))
	if err != nil {
		return err
	}
	return colors.Verify(g)
}

// request builds job number job of the given kind; inputs rotate.
func (s *serveRun) request(job int64, kind int) (*service.Request, *serveInput) {
	in := s.inputs[int(job)%len(s.inputs)]
	req := &service.Request{Algorithm: kindNames[kind]}
	switch s.name {
	case "serve_cold_inline":
		// A seed no earlier job used: a new result-cache key and a new
		// partition-cache key, so both miss.
		req.Graph, req.Seed = in.text, s.seed<<24+uint64(job)+1
	case "serve_warm_ref":
		// The block partition does not depend on the seed's edge weights, so
		// the cut, and with it wire_kb_per_job, is the same for every seed.
		req.GraphRef, req.NoCache, req.Partition = s.ref, true, "block"
	case "serve_hit_small":
		req.Graph = in.text
	}
	return req, in
}

// submit posts one job the way client.Submit does, with the three client-side
// phases under spans of their own. It returns the client.http span for the
// daemon's spans to hang under.
func (s *serveRun) submit(tr *tracer, root, jid int32, req *service.Request) (*service.Response, int, int32, error) {
	enc := tr.begin("client.encode", root, jid)
	body, err := json.Marshal(req)
	tr.end(enc)
	if err != nil {
		return nil, 0, 0, err
	}
	rt := tr.begin("client.http", root, jid)
	hresp, err := s.hc.Post(s.srv.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	tr.end(rt)
	if err != nil {
		return nil, 0, 0, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("status %d: %.200s", hresp.StatusCode, raw)
	}
	dec := tr.begin("client.decode", root, jid)
	var resp service.Response
	err = json.Unmarshal(raw, &resp)
	tr.end(dec)
	return &resp, len(raw), rt, err
}

// check compares one answer with its reference. Match answers must equal the
// sequential matching byte for byte (the distributed algorithm computes the
// same matching on any partition); color answers are bounded here and
// verified in full on a retained sample after the window.
func (s *serveRun) check(in *serveInput, kind int, resp *service.Response) error {
	if hit := s.name == "serve_hit_small"; resp.Cached != hit {
		return fmt.Errorf("cached = %v, want %v", resp.Cached, hit)
	}
	if kind == kindMatch {
		switch {
		case math.Abs(resp.Weight-in.refWeight) > 1e-9*in.refWeight:
			return fmt.Errorf("weight %v, sequential %v", resp.Weight, in.refWeight)
		case resp.Cardinality != in.refCard:
			return fmt.Errorf("cardinality %d, sequential %d", resp.Cardinality, in.refCard)
		case resp.Result != in.matesText:
			return fmt.Errorf("matching differs from the sequential one")
		}
		return nil
	}
	if resp.Colors < 1 || resp.Colors > in.maxDeg+1 {
		return fmt.Errorf("%d colors on maximum degree %d", resp.Colors, in.maxDeg)
	}
	if fill := in.fill[kindColor]; fill != nil && resp.Result != fill.Result {
		return fmt.Errorf("cached coloring differs from the answer that filled the cache")
	}
	return nil
}

func (s *serveRun) fail(format string, args ...any) {
	if s.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", s.name, fmt.Sprintf(format, args...))
	}
}

// retained is a color answer kept for full verification after the window.
type retained struct {
	in     *serveInput
	result string
}

func (s *serveRun) measure(d time.Duration, tr *tracer) (*window, error) {
	before, err := s.cl.Metrics(s.ctx)
	if err != nil {
		return nil, err
	}
	var (
		wg      sync.WaitGroup
		recs    [clients][]jobRec
		samples [clients][]retained
	)
	m := startMeter(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client sends whole match+color pairs, so the kinds stay 1:1;
			// the clients start on different kinds, so the daemon mostly runs
			// one of each.
			colorJobs := 0
			for n := 0; !m.done() || n%2 == 1; n++ {
				job, kind := s.nextJob.Add(1)-1, (n+c)%2
				req, in := s.request(job, kind)
				jid := int32(job + 1)
				root := tr.begin("job."+kindNames[kind], 0, jid)
				t0 := time.Now()
				resp, size, rt, err := s.submit(tr, root, jid, req)
				rec := jobRec{kind: kind, end: time.Now(), respBytes: size, weightRatio: 1}
				rec.lat = rec.end.Sub(t0)
				tr.end(root)
				if err == nil {
					err = s.check(in, kind, resp)
				}
				if err != nil {
					s.fail("job %d (%s): %v", job, kindNames[kind], err)
				} else {
					rec.ok = true
					rec.wireBytes, rec.msgs = resp.Bytes, resp.Messages
					rec.colors, rec.rounds, rec.conflicts = resp.Colors, resp.Rounds, resp.Conflicts
					if kind == kindMatch {
						rec.weightRatio = resp.Weight / in.refWeight
					} else if colorJobs++; in.fill[kindColor] == nil && colorJobs%8 == 1 {
						samples[c] = append(samples[c], retained{in, resp.Result})
					}
					if tr != nil && n%s.traceEvery() < 2 {
						s.joinDaemonSpans(tr, rt, jid, resp.JobID)
					}
				}
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	var all []jobRec
	for c := range recs {
		all = append(all, recs[c]...)
	}
	w := m.window(all, true)
	after, err := s.cl.Metrics(s.ctx)
	if err != nil {
		return nil, err
	}
	for c := range samples {
		for _, r := range samples[c] {
			if err := verifyColors(r.in.g, r.result); err != nil {
				s.fail("retained coloring: %v", err)
				w.extraFailed++
			}
		}
	}
	s.delta = map[string]int64{}
	for name, v := range after.Counters {
		s.delta[name] = v - before.Counters[name]
	}
	w.extraFailed += s.assertCaches(int64(len(all)))
	return w, nil
}

// assertCaches checks that the window went down the path the workload exists
// to measure; a workload that stops exercising its path must fail loudly.
func (s *serveRun) assertCaches(jobs int64) (failed int) {
	want := map[string]int64{}
	switch s.name {
	case "serve_cold_inline":
		want["service.cache_hits"], want["service.partition_cache_hits"] = 0, 0
		want["service.cache_misses"], want["service.partition_cache_misses"] = jobs, jobs
	case "serve_warm_ref":
		want["service.cache_hits"], want["service.partition_cache_misses"] = 0, 0
		want["service.partition_cache_hits"], want["ingest.store_hits"] = jobs, jobs
	case "serve_hit_small":
		want["service.cache_hits"], want["service.cache_misses"] = jobs, 0
	}
	for name, n := range want {
		if s.delta[name] != n {
			s.fail("%s rose by %d over %d jobs, want %d", name, s.delta[name], jobs, n)
			failed++
		}
	}
	return failed
}

// traceEvery thins the per-job trace fetches on the workload whose jobs are
// cheaper than the fetch: each client fetches one match+color pair in every
// traceEvery of its jobs.
func (s *serveRun) traceEvery() int {
	if s.name == "serve_hit_small" {
		return 32
	}
	return 2
}

// joinDaemonSpans fetches the daemon's retained span tree of one job and
// hangs its service-lifecycle spans under the client's round-trip span.
func (s *serveRun) joinDaemonSpans(tr *tracer, rt, jid int32, jobID string) {
	jt, err := s.cl.JobTrace(s.ctx, jobID)
	if err != nil {
		s.fail("trace of %s: %v", jobID, err)
		return
	}
	ids := map[string]int32{}
	for _, sp := range jt.Spans {
		if sp.Rank == obs.DriverRank {
			start := time.Unix(0, sp.StartUnixNano)
			ids[sp.SpanID] = tr.add(sp.Name, rt, jid, start, start.Add(time.Duration(sp.DurNanos)))
		}
	}
	for _, sp := range jt.Spans {
		if parent, ok := ids[sp.ParentSpanID]; ok && sp.Rank == obs.DriverRank {
			tr.setParent(ids[sp.SpanID], parent)
		}
	}
}

func (s *serveRun) layers(plain, traced *window, tr *tracer, out map[string]float64) error {
	spans := tr.spans
	p50 := func(names ...string) float64 {
		var all []float64
		for _, name := range names {
			all = append(all, spanDurs(spans, name)...)
		}
		return median(all)
	}
	out["client.encode_ms"] = p50("client.encode")
	out["client.http_ms"] = p50("client.http")
	out["client.decode_ms"] = p50("client.decode")
	out["service.response_kb"] = mean(traced.pick(-1, func(j *jobRec) float64 { return float64(j.respBytes) / 1024 }))
	out["service.admit_ms"] = p50("serve.admit")
	out["service.resolve_ms"] = p50("serve.resolve")
	out["service.queue_wait_ms"] = p50("serve.queue_wait")
	out["service.pool_acquire_ms"] = p50("serve.pool_acquire")
	out["service.partition_ms"] = p50("serve.partition.cached", "serve.partition.compute")
	out["service.run_ms"] = p50("serve.run")
	out["service.cache_deposit_ms"] = p50("serve.cache_deposit")
	out["service.respond_ms"] = p50("serve.respond")
	// What the round trip costs beyond the daemon's own root span: the HTTP
	// stack on both sides and the loopback.
	httpMs, jobMs := map[int32]float64{}, map[int32]float64{}
	for _, sp := range spans {
		switch sp.Name {
		case "client.http":
			httpMs[sp.Job] = float64(sp.End-sp.Start) / 1e6
		case "serve.job":
			jobMs[sp.Job] = float64(sp.End-sp.Start) / 1e6
		}
	}
	var gaps []float64
	for job, inside := range jobMs {
		gaps = append(gaps, httpMs[job]-inside)
	}
	out["service.unaccounted_ms"] = median(gaps)

	frac := func(num string, den ...string) float64 {
		total := int64(0)
		for _, name := range den {
			total += s.delta[name]
		}
		if total == 0 {
			return 0
		}
		return float64(s.delta[num]) / float64(total)
	}
	out["service.result_cache_hit_frac"] = frac("service.cache_hits", "service.cache_hits", "service.cache_misses")
	out["service.partition_cache_hit_frac"] = frac("service.partition_cache_hits", "service.partition_cache_hits", "service.partition_cache_misses")
	out["service.store_hit_frac"] = frac("ingest.store_hits", "ingest.store_hits", "ingest.store_misses")
	out["service.worlds_reused_frac"] = frac("service.pool_worlds_reused", "service.pool_worlds_reused", "service.pool_worlds_created")
	out["service.rejected_frac"] = frac("service.jobs_rejected", "service.jobs_submitted")

	// Solo latency: one client, nothing else in flight, so that the stage sum
	// below is compared with a latency free of queueing and core contention.
	var solo [2][]float64
	for i := 0; i < 6; i++ {
		kind := i % 2
		req, in := s.request(s.nextJob.Add(1)-1, kind)
		t0 := time.Now()
		resp, _, _, err := s.submit(nil, 0, 0, req)
		if err == nil {
			err = s.check(in, kind, resp)
		}
		if err != nil {
			return fmt.Errorf("solo job: %w", err)
		}
		solo[kind] = append(solo[kind], ms(time.Since(t0)))
	}

	// The stage-by-stage replay of one job of each kind on the first input,
	// through the public functions the daemon calls, in its order.
	in := s.inputs[0]
	part, err := partition.Multilevel(in.g, ranks, partition.MultilevelOptions{Seed: 1})
	if s.name == "serve_warm_ref" {
		part, err = partition.Block1D(in.g, ranks)
	}
	if err != nil {
		return err
	}
	color := coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors, Seed: 1}
	prof, err := profileStages(tr, in.g, part, matching.ParallelOptions{}, color)
	if err != nil {
		return err
	}
	prof.fill(in.g, part, out)
	resolve, partitionMs := 0.0, 0.0
	if in.text != "" {
		resolve = prof.textReadMs + prof.fingerprintMs
	}
	if s.name == "serve_cold_inline" {
		partitionMs = prof.multilevelMs
	}
	covered := 0.0
	for kind, pkg := range kindPkg {
		k := &prof.k[kind]
		out[pkg+".kernel_ms"] = k.kernelMs
		out[pkg+".gather_ms"] = k.gatherMs
		out[pkg+".par_over_seq"] = k.kernelMs / k.seqMs
		req, _ := s.request(0, kind)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		reqDecode, _ := stage(tr, "json.Decode(Request)", func() error {
			return json.Unmarshal(body, new(service.Request))
		})
		respEncode, _ := stage(tr, "json.Encode(Response)", func() error {
			_, err := json.Marshal(&service.Response{Algorithm: req.Algorithm, Result: k.result})
			return err
		})
		sum := out["client.encode_ms"] + out["service.unaccounted_ms"] + reqDecode + resolve + respEncode + out["client.decode_ms"]
		if s.name != "serve_hit_small" {
			sum += partitionMs + k.apiMs + k.verifyMs + k.writeMs
		}
		covered += sum / median(solo[kind]) / 2
	}
	out["replay.coverage_frac"] = covered
	out["coloring.conflict_frac"] = out["coloring.conflicts_per_job"] / float64(in.g.NumVertices())

	if s.name != "serve_warm_ref" {
		return nil
	}
	out["ingest.upload_s"] = s.upload.Elapsed.Seconds()
	out["ingest.upload_mb_per_s"] = float64(s.upload.BytesSent) / (1 << 20) / s.upload.Elapsed.Seconds()
	_, again, err := s.cl.UploadGraph(s.ctx, in.g, client.UploadOptions{})
	if err != nil {
		return fmt.Errorf("second upload: %w", err)
	}
	if !again.ShortCircuit {
		return fmt.Errorf("second upload of a known graph did not short-circuit")
	}
	out["ingest.short_circuit_ms"] = ms(again.Elapsed)

	// The daemon's own tracing, on against off: a second daemon started with
	// -no-tracing runs the same untraced loop for the same time.
	off := &serveRun{name: s.name, ctx: s.ctx, bin: s.bin, extraArgs: []string{"-no-tracing"}, sz: s.sz, seed: s.seed}
	defer off.close()
	if err := off.setup(); err != nil {
		return fmt.Errorf("-no-tracing daemon: %w", err)
	}
	if err := off.reference(); err != nil {
		return err
	}
	w, err := off.measure(plain.busy, nil)
	if err != nil {
		return fmt.Errorf("-no-tracing daemon: %w", err)
	}
	out["obs.serve_tracing_overhead_frac"] = 1 - plain.jobsPerSec()/w.jobsPerSec()
	return nil
}
