package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// spillStore builds a store with the persistent tier on dir.
func spillStore(t *testing.T, dir string) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	if err := st.EnableSpill(SpillConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	return st, reg
}

func spillGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(300, 1500, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func spillPath(dir, fp string) string { return filepath.Join(dir, fp+spillExt) }

func TestSpillPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := spillGraph(t, 3)
	fp := graph.Fingerprint(g)

	st1, _ := spillStore(t, dir)
	st1.Put(fp, g)
	if _, err := os.Stat(spillPath(dir, fp)); err != nil {
		t.Fatalf("deposit left no spill file: %v", err)
	}

	// A second store on the same directory models the restarted daemon:
	// empty memory, same disk.
	st2, reg := spillStore(t, dir)
	if n := st2.Stats().Entries; n != 0 {
		t.Fatalf("restart scan decoded %d graphs eagerly; the index must be headers-only", n)
	}
	if !st2.Contains(fp) {
		t.Fatal("spilled fingerprint unknown after restart")
	}
	got, rehydrated, ok := st2.Resolve(fp)
	if !ok || !rehydrated {
		t.Fatalf("Resolve after restart: ok=%v rehydrated=%v", ok, rehydrated)
	}
	if graph.Fingerprint(got) != fp {
		t.Fatal("rehydrated graph does not re-fingerprint to its ref")
	}
	// Now resident: the second resolve is a memory hit, not a disk read.
	if _, rehydrated, ok = st2.Resolve(fp); !ok || rehydrated {
		t.Fatalf("second Resolve: ok=%v rehydrated=%v, want memory hit", ok, rehydrated)
	}
	snap := reg.Snapshot()
	if v := snap.Counters["ingest.spill_rehydrations"]; v != 1 {
		t.Fatalf("spill_rehydrations = %d, want 1", v)
	}
	if v := snap.Counters["ingest.spill_corrupt"]; v != 0 {
		t.Fatalf("spill_corrupt = %d, want 0", v)
	}
}

func TestSpillShortCircuitFromDiskOnly(t *testing.T) {
	dir := t.TempDir()
	g := ingestTestGraph(t)
	fp := graph.Fingerprint(g)
	st1, _ := spillStore(t, dir)
	st1.Put(fp, g)

	// Restarted daemon: the graph exists only on disk, yet a re-upload must
	// still settle after chunk 0 — the whole point of persisting the store.
	st2, _ := spillStore(t, dir)
	m, _ := newTestManager(t, func(cfg *Config) { cfg.Store = st2 })
	enc, err := graph.EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}
	chunks := chunksOf(enc, 2048)
	s, err := m.Open(2048)
	if err != nil {
		t.Fatal(err)
	}
	st := mustAppend(t, m, s, 0, chunks[0])
	if st.State != StateShortCircuit {
		t.Fatalf("state after chunk 0 = %s, want short_circuit (disk-backed fingerprint)", st.State)
	}
	if st.GraphRef != fp {
		t.Fatalf("short-circuit graph_ref %q, want %s", st.GraphRef, fp)
	}
}

// TestSpillCorruptionQuarantined injects every corruption the spill tier
// claims to survive: each one must be quarantined (counted, set aside,
// dropped from the index) without failing startup or poisoning later loads
// of the same fingerprint.
func TestSpillCorruptionQuarantined(t *testing.T) {
	encode := func(t *testing.T, g *graph.Graph) []byte {
		t.Helper()
		enc, err := graph.EncodeDMGB(g)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}

	// deposit writes one spilled graph and returns its fingerprint — the
	// fixture each corruption then defaces.
	deposit := func(t *testing.T, dir string) string {
		t.Helper()
		g := spillGraph(t, 5)
		fp := graph.Fingerprint(g)
		st, _ := spillStore(t, dir)
		st.Put(fp, g)
		return fp
	}

	// checkResolveFails restarts on the defaced directory and asserts the
	// load-time quarantine path: the ref reads as a miss, the counter ticks,
	// the file is set aside, and a re-deposit of the same graph recovers.
	checkLoadQuarantine := func(t *testing.T, dir, fp string) {
		t.Helper()
		st, reg := spillStore(t, dir)
		if !st.Contains(fp) {
			t.Fatal("header-valid corruption should pass the scan and be indexed")
		}
		if _, _, ok := st.Resolve(fp); ok {
			t.Fatal("Resolve served a corrupt spill file")
		}
		if v := reg.Snapshot().Counters["ingest.spill_corrupt"]; v != 1 {
			t.Fatalf("spill_corrupt = %d, want 1", v)
		}
		if _, err := os.Stat(spillPath(dir, fp)); !os.IsNotExist(err) {
			t.Fatalf("corrupt spill file still under its valid name: %v", err)
		}
		if _, err := os.Stat(spillPath(dir, fp) + quarantineExt); err != nil {
			t.Fatalf("corrupt spill file not quarantined: %v", err)
		}
		if st.Contains(fp) {
			t.Fatal("corrupt fingerprint still indexed after quarantine")
		}
		// The miss is not sticky: re-depositing the graph works and the next
		// resolve rehydrates cleanly from the fresh file.
		g := spillGraph(t, 5)
		st.Put(fp, g)
		if _, ok := st.Get(fp); !ok {
			t.Fatal("re-deposit after quarantine did not restore the graph")
		}
	}

	t.Run("truncated", func(t *testing.T) {
		dir := t.TempDir()
		fp := deposit(t, dir)
		info, err := os.Stat(spillPath(dir, fp))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(spillPath(dir, fp), info.Size()/2); err != nil {
			t.Fatal(err)
		}
		checkLoadQuarantine(t, dir, fp)
	})

	t.Run("bitflip-body", func(t *testing.T) {
		dir := t.TempDir()
		fp := deposit(t, dir)
		b, err := os.ReadFile(spillPath(dir, fp))
		if err != nil {
			t.Fatal(err)
		}
		b[graph.DMGBHeaderSize+len(b)/2] ^= 0x20 // body byte; header stays valid
		if err := os.WriteFile(spillPath(dir, fp), b, 0o644); err != nil {
			t.Fatal(err)
		}
		checkLoadQuarantine(t, dir, fp)
	})

	t.Run("header-name-mismatch", func(t *testing.T) {
		// A valid DMGB stream filed under a different fingerprint's name: the
		// scan's header check catches it before it is ever indexed.
		dir := t.TempDir()
		g := spillGraph(t, 5)
		wrong := strings.Repeat("ab", 32)
		if err := os.WriteFile(spillPath(dir, wrong), encode(t, g), 0o644); err != nil {
			t.Fatal(err)
		}
		st, reg := spillStore(t, dir)
		if st.Contains(wrong) || st.Contains(graph.Fingerprint(g)) {
			t.Fatal("mis-filed spill file should not be indexed under either name")
		}
		if v := reg.Snapshot().Counters["ingest.spill_corrupt"]; v != 1 {
			t.Fatalf("spill_corrupt = %d, want 1", v)
		}
		if _, err := os.Stat(spillPath(dir, wrong) + quarantineExt); err != nil {
			t.Fatalf("mis-filed spill file not quarantined: %v", err)
		}
	})

	t.Run("stray-file", func(t *testing.T) {
		dir := t.TempDir()
		fp := deposit(t, dir)
		if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a graph"), 0o644); err != nil {
			t.Fatal(err)
		}
		st, reg := spillStore(t, dir)
		if v := reg.Snapshot().Counters["ingest.spill_corrupt"]; v != 1 {
			t.Fatalf("spill_corrupt = %d, want 1", v)
		}
		if _, err := os.Stat(filepath.Join(dir, "notes.txt"+quarantineExt)); err != nil {
			t.Fatalf("stray file not quarantined: %v", err)
		}
		// The legitimate neighbor is untouched by the stray's quarantine.
		if _, rehydrated, ok := st.Resolve(fp); !ok || !rehydrated {
			t.Fatalf("valid spill file harmed by stray quarantine: ok=%v rehydrated=%v", ok, rehydrated)
		}
	})
}

func TestSpillScanSweepsTempsSkipsQuarantined(t *testing.T) {
	dir := t.TempDir()
	fp := func() string {
		g := spillGraph(t, 9)
		fp := graph.Fingerprint(g)
		st, _ := spillStore(t, dir)
		st.Put(fp, g)
		return fp
	}()
	tmp := filepath.Join(dir, ".spill-1234.tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, strings.Repeat("cd", 32)+spillExt+quarantineExt)
	if err := os.WriteFile(old, []byte("previously quarantined"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, reg := spillStore(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("crash-leftover temp file survived the startup sweep")
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("quarantined file must be left for the operator: %v", err)
	}
	if v := reg.Snapshot().Counters["ingest.spill_corrupt"]; v != 0 {
		t.Fatalf("quarantined leftovers recounted: spill_corrupt = %d, want 0", v)
	}
	if !st.Contains(fp) {
		t.Fatal("valid spill file lost among the leftovers")
	}
}

func TestSpillDiskBudgetEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	st, reg := spillStore(t, dir)
	// Sized against the budget spillStore gets (EnableSpill's 1 MiB floor):
	// room for two spill files, not three.
	var gs []*graph.Graph
	for seed := uint64(21); seed <= 23; seed++ {
		g, err := gen.ErdosRenyi(6000, 22000, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	enc, err := graph.EncodeDMGB(gs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(enc)); 2*n > st.spill.maxBytes || 3*n <= st.spill.maxBytes {
		t.Fatalf("a %d-byte spill file does not fit the %d-byte budget exactly twice", n, st.spill.maxBytes)
	}

	fps := make([]string, 0, 3)
	for _, g := range gs {
		fp := graph.Fingerprint(g)
		fps = append(fps, fp)
		st.Put(fp, g)
	}
	if st.spill.contains(fps[0]) {
		t.Fatal("oldest spill file still indexed past the disk budget")
	}
	if _, err := os.Stat(spillPath(dir, fps[0])); !os.IsNotExist(err) {
		t.Fatalf("evicted spill file still on disk: %v", err)
	}
	for _, fp := range fps[1:] {
		if !st.spill.contains(fp) {
			t.Fatalf("recent fingerprint %s evicted, want only the oldest", fp[:12])
		}
	}
	if v := reg.Snapshot().Counters["ingest.spill_evictions"]; v != 1 {
		t.Fatalf("spill_evictions = %d, want 1", v)
	}
	// Disk eviction behaves exactly like memory eviction did: the restarted
	// daemon answers a plain miss for the evicted ref.
	st2, _ := spillStore(t, dir)
	if st2.Contains(fps[0]) {
		t.Fatal("evicted ref resurfaced after restart")
	}
	if !st2.Contains(fps[2]) {
		t.Fatal("retained ref lost after restart")
	}
}
