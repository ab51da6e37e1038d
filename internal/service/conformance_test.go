package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/ingest"
)

// TestServiceMatchesCLI is the service↔CLI conformance gate: a job submitted
// over HTTP must produce byte-identical output to what dmgm-match/dmgm-color
// write for the same graph and parameters. Both sides end in dmgm.RunJob, so
// what the test compares is everything around it that differs:
//
//   - the reference is the CLI's way in — the partitioner resolved by name, a
//     freshly computed partition, a fresh world with no observer;
//   - the service answer is the second submission of the job, with no_cache:
//     it must have run (not been served from the result cache) on a pooled
//     world another job used before, on a partition-cache hit, with per-job
//     tracing on. Each of those is asserted, not assumed.
func TestServiceMatchesCLI(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 900, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteText(&sb, g); err != nil {
		t.Fatal(err)
	}
	gtext := sb.String()

	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 2}, true)
	ctx := context.Background()

	const ranks = 4
	const seed = 5
	reference := func(req *service.Request) *dmgm.JobResult {
		t.Helper()
		_, res := freshly(t, g, *req)
		return res
	}
	counters := func() map[string]int64 {
		t.Helper()
		m, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m.Counters
	}
	// served submits req twice and returns the second answer, having checked
	// it took the daemon's warm path end to end.
	served := func(req service.Request) *service.Response {
		t.Helper()
		if _, err := cl.Submit(ctx, &req); err != nil {
			t.Fatal(err)
		}
		before := counters()
		req.NoCache = true
		resp, err := cl.Submit(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		after := counters()
		if resp.Cached {
			t.Fatal("no_cache submission was served from the result cache")
		}
		for _, name := range []string{"service.pool_worlds_reused", "service.partition_cache_hits"} {
			if after[name] != before[name]+1 {
				t.Fatalf("%s went %d → %d over the second submission, want +1", name, before[name], after[name])
			}
		}
		if after["service.pool_worlds_created"] != before["service.pool_worlds_created"] {
			t.Fatal("second submission ran on a newly created world")
		}
		jt, err := cl.JobTrace(ctx, resp.JobID)
		if err != nil {
			t.Fatalf("tracing is on, yet the job has no trace: %v", err)
		}
		cachedSpan := false
		for _, sp := range jt.Spans {
			cachedSpan = cachedSpan || sp.Name == "serve.partition.cached"
		}
		if !cachedSpan {
			t.Fatal("the job's trace has no serve.partition.cached span")
		}
		return resp
	}
	// The request defaults, and a non-default pair so a name→implementation
	// mismatch cannot hide behind the defaults.
	names := []struct{ partitioner, comm string }{
		{"multilevel", "neighbors"},
		{"bfs", "customized-all"},
	}

	t.Run("match", func(t *testing.T) {
		for _, n := range names {
			for _, noBundle := range []bool{false, true} {
				req := service.Request{
					Algorithm: service.AlgoMatch, Graph: gtext, Ranks: ranks, Partition: n.partitioner,
					Params: dmgm.Params{Seed: seed, NoBundle: noBundle},
				}
				resp, want := served(req), reference(&req)
				if resp.Result != want.Text {
					t.Fatalf("%s no_bundle=%v: service result diverges from the CLI serialization", n.partitioner, noBundle)
				}
				if resp.Weight != want.Weight || resp.Cardinality != want.Cardinality {
					t.Fatalf("%s no_bundle=%v: summary fields diverge: service (%g, %d) vs CLI (%g, %d)",
						n.partitioner, noBundle, resp.Weight, resp.Cardinality, want.Weight, want.Cardinality)
				}
				// Traffic counts are scheduling-dependent (a rank that receives
				// early answers fewer requests), so only their presence is
				// asserted — the result itself is what must agree exactly.
				if resp.Messages == 0 || resp.Bytes == 0 {
					t.Fatalf("%s no_bundle=%v: service reported no traffic (%d msgs, %d B)",
						n.partitioner, noBundle, resp.Messages, resp.Bytes)
				}
			}
		}
	})

	t.Run("color", func(t *testing.T) {
		for _, n := range names {
			for _, distance2 := range []bool{false, true} {
				req := service.Request{
					Algorithm: service.AlgoColor, Graph: gtext, Ranks: ranks, Partition: n.partitioner,
					Params: dmgm.Params{Seed: seed, Comm: n.comm, Superstep: 100, Distance2: distance2},
				}
				resp, want := served(req), reference(&req)
				if resp.Result != want.Text {
					t.Fatalf("%s/%s distance2=%v: service result diverges from the CLI serialization", n.partitioner, n.comm, distance2)
				}
				if resp.Colors != want.Colors || resp.Rounds != want.Rounds {
					t.Fatalf("%s/%s distance2=%v: summary fields diverge: service (%d colors, %d rounds) vs CLI (%d, %d)",
						n.partitioner, n.comm, distance2, resp.Colors, resp.Rounds, want.Colors, want.Rounds)
				}
			}
		}
	})
}

// TestRestartConformance is the persistence gate (docs/PROTOCOL.md §7): a
// graph uploaded in chunks to a daemon with a store directory must remain
// addressable by its graph_ref after the daemon dies and a new one starts on
// the same directory — with byte-identical job results and zero re-uploaded
// chunks. The first daemon is simply abandoned mid-steady-state, never
// drained: deposits are durable at upload completion (temp-file + rename +
// sync), not at shutdown, which is exactly what a SIGKILL exercises.
func TestRestartConformance(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.ErdosRenyi(800, 3200, true, 13)
	if err != nil {
		t.Fatal(err)
	}
	fp := graph.Fingerprint(g)

	_, cl1 := startServer(t, service.Config{Workers: 2, StoreDir: dir}, true)
	ref, stats, err := cl1.UploadGraph(context.Background(), g, client.UploadOptions{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if ref != fp {
		t.Fatalf("graph_ref %s, want the fingerprint %s", ref, fp)
	}
	if stats.ChunksSent < 4 {
		t.Fatalf("upload went in %d chunks, want >=4 (grow the graph or shrink the chunks)", stats.ChunksSent)
	}
	req := &service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, Params: dmgm.Params{Seed: 5}}
	before, err := cl1.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// The "restarted" daemon: a second server on the same directory, while
	// the first is abandoned un-drained.
	_, cl2 := startServer(t, service.Config{Workers: 2, StoreDir: dir}, true)
	after, err := cl2.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("graph_ref did not survive the restart: %v", err)
	}
	if after.Result != before.Result {
		t.Fatal("restarted daemon produced a different result for the same ref and parameters")
	}
	if after.Weight != before.Weight || after.Cardinality != before.Cardinality {
		t.Fatalf("summary fields diverge across restart: (%g, %d) vs (%g, %d)",
			after.Weight, after.Cardinality, before.Weight, before.Cardinality)
	}
	m, err := cl2.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["ingest.spill_rehydrations"] < 1 {
		t.Fatal("restarted daemon answered the ref without rehydrating from disk — where did the graph come from?")
	}

	// Re-uploading the same graph moves zero payload: chunk 0 alone reveals
	// the fingerprint the disk index already knows.
	_, stats2, err := cl2.UploadGraph(context.Background(), g, client.UploadOptions{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.ShortCircuit || stats2.ChunksSent != 1 {
		t.Fatalf("re-upload after restart: short_circuit=%v chunks=%d, want a 1-chunk short circuit",
			stats2.ShortCircuit, stats2.ChunksSent)
	}
}

// TestHealthzStoreSection asserts the operator surface of the spill tier:
// /healthz carries a store section with both tiers' occupancy, present even
// without a store directory (spill fields then omitted).
func TestHealthzStoreSection(t *testing.T) {
	dir := t.TempDir()
	_, cl := startServer(t, service.Config{Workers: 1, StoreDir: dir}, true)
	_, gtext := testGraph(t)
	if _, err := cl.Submit(context.Background(), &service.Request{
		Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2,
	}); err != nil {
		t.Fatal(err)
	}

	rec := struct {
		Store ingest.StoreStats `json:"store"`
	}{}
	resp, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Store.Entries != 1 || rec.Store.Bytes <= 0 {
		t.Fatalf("store section: %+v, want the one deposited graph accounted", rec.Store)
	}
	if rec.Store.SpillDir != dir || rec.Store.SpillFiles != 1 || rec.Store.SpillBytes <= 0 {
		t.Fatalf("spill section: %+v, want one spill file under %s", rec.Store, dir)
	}
	if rec.Store.SpillBudget <= 0 {
		t.Fatalf("spill budget %d, want the configured default", rec.Store.SpillBudget)
	}
}
