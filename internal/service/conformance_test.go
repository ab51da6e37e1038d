package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/service/ingest"
)

// TestServiceMatchesCLI is the service↔CLI conformance gate: a job submitted
// over HTTP must produce byte-identical output to what dmgm-match/dmgm-color
// write for the same graph and parameters. The reference below is the CLI
// execution path verbatim — same name parsers, same dmgm entry points on a
// fresh world, same text serializers — minus flag parsing.
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

	const ranks = 4
	const seed = 5
	// The reference resolves partitioner and comm mode from the same strings
	// the request carries, through the same parsers the CLIs use — a name
	// that meant one implementation to the daemon and another to the CLI
	// would show up as a diverging result below.
	reference := func(partitioner, comm string) (*partition.Partition, coloring.CommMode) {
		t.Helper()
		build, err := partition.ByName(partitioner)
		if err != nil {
			t.Fatal(err)
		}
		part, err := build(g, ranks, partition.MultilevelOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mode, err := coloring.ParseCommMode(comm)
		if err != nil {
			t.Fatal(err)
		}
		return part, mode
	}
	freshWorld := func() *mpi.World {
		w, err := mpi.NewWorld(ranks, mpi.WithDeadline(10*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// The request defaults, and a non-default pair so a name→implementation
	// mismatch cannot hide behind the defaults.
	names := []struct{ partitioner, comm string }{
		{"multilevel", "neighbors"},
		{"bfs", "customized-all"},
	}

	t.Run("match", func(t *testing.T) {
		for _, n := range names {
			part, _ := reference(n.partitioner, n.comm)
			for _, noBundle := range []bool{false, true} {
				resp, err := cl.Submit(context.Background(), &service.Request{
					Algorithm: service.AlgoMatch, Graph: gtext, Ranks: ranks, Seed: seed,
					Partition: n.partitioner, NoBundle: noBundle,
				})
				if err != nil {
					t.Fatal(err)
				}
				opt := dmgm.MatchParallelOptions{}
				if noBundle {
					opt.BundleBytes = 17
				}
				res, err := dmgm.MatchParallelWorld(freshWorld(), g, part, opt)
				if err != nil {
					t.Fatal(err)
				}
				var want strings.Builder
				if err := matching.WriteMates(&want, res.Mates); err != nil {
					t.Fatal(err)
				}
				if resp.Result != want.String() {
					t.Fatalf("%s no_bundle=%v: service result diverges from the CLI serialization", n.partitioner, noBundle)
				}
				if resp.Weight != res.Weight || resp.Cardinality != res.Mates.Cardinality() {
					t.Fatalf("%s no_bundle=%v: summary fields diverge: service (%g, %d) vs CLI (%g, %d)",
						n.partitioner, noBundle, resp.Weight, resp.Cardinality, res.Weight, res.Mates.Cardinality())
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
			part, mode := reference(n.partitioner, n.comm)
			for _, distance2 := range []bool{false, true} {
				resp, err := cl.Submit(context.Background(), &service.Request{
					Algorithm: service.AlgoColor, Graph: gtext, Ranks: ranks, Seed: seed,
					Partition: n.partitioner, Comm: n.comm, Superstep: 100, Distance2: distance2,
				})
				if err != nil {
					t.Fatal(err)
				}
				opt := dmgm.ColorParallelOptions{SuperstepSize: 100, Seed: seed, CommMode: mode}
				var res *dmgm.ColorParallelResult
				if distance2 {
					res, err = dmgm.ColorParallelDistance2World(freshWorld(), g, part, opt)
				} else {
					res, err = dmgm.ColorParallelWorld(freshWorld(), g, part, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				var want strings.Builder
				if err := coloring.WriteColors(&want, res.Colors); err != nil {
					t.Fatal(err)
				}
				if resp.Result != want.String() {
					t.Fatalf("%s/%s distance2=%v: service result diverges from the CLI serialization", n.partitioner, n.comm, distance2)
				}
				if resp.Colors != res.NumColors || resp.Rounds != res.Rounds {
					t.Fatalf("%s/%s distance2=%v: summary fields diverge: service (%d colors, %d rounds) vs CLI (%d, %d)",
						n.partitioner, n.comm, distance2, resp.Colors, resp.Rounds, res.NumColors, res.Rounds)
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
	req := &service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, Seed: 5}
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
