package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestLoadPathDetectsSameSecondReplace is the regression test for the
// path-cache identity: replacing a daemon-local graph file with an
// equal-sized one carrying the very same modtime (the worst case of a
// 1-second-granularity filesystem) must still invalidate the cached decode.
// Size and modtime are identical by construction here; only the inode
// distinguishes the files.
func TestLoadPathDetectsSameSecondReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	// Same byte length, different weight — different fingerprints.
	a := "g 2 1\ne 0 1 1.0\n"
	b := "g 2 1\ne 0 1 2.0\n"
	if err := os.WriteFile(path, []byte(a), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fileIno(info) == 0 {
		t.Skip("platform exposes no inode identity; size+modtime fallback is untestable here")
	}

	st := NewStore(64<<20, obs.NewRegistry())
	_, fp1, err := st.LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-cache sanity: an untouched file is served from the path cache.
	if _, again, err := st.LoadPath(path); err != nil || again != fp1 {
		t.Fatalf("repeat load: fp %s err %v, want cached %s", again, err, fp1)
	}

	// Replace via rename (a new inode) and pin the replacement's stat to the
	// original's exact size and modtime.
	repl := filepath.Join(dir, "g.txt.new")
	if err := os.WriteFile(repl, []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(repl, path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if ni, err := os.Stat(path); err != nil || ni.Size() != info.Size() || !ni.ModTime().Equal(info.ModTime()) {
		t.Fatalf("fixture broken: replacement must match size and modtime exactly (err %v)", err)
	}

	_, fp2, err := st.LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp1 {
		t.Fatal("stale path-cache entry: replaced file decoded to the old fingerprint")
	}
}

// inlineText renders g as the text an inline job carries.
func inlineText(t testing.TB, g *graph.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := graph.WriteText(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// bigGraph resides in just under 1 MiB (GraphBytes), so a store at the
// 1 MiB minimum budget holds exactly one.
func bigGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(5000, 40000, true, seed)
	if err != nil {
		t.Fatal(err)
	}
	if b := GraphBytes(g); b > 1<<20 || 2*b <= 1<<20 {
		t.Fatalf("fixture holds %d bytes: want one, not two, inside 1 MiB", b)
	}
	return g
}

func counter(reg *obs.Registry, name string) int64 { return reg.Snapshot().Counters[name] }

// memoLen is the size of the text memo, checked against its inverse.
func memoLen(t *testing.T, st *Store) int {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.texts) != len(st.textOf) {
		t.Fatalf("text memo has %d digests but %d fingerprints", len(st.texts), len(st.textOf))
	}
	for d, fp := range st.texts {
		if st.textOf[fp] != d {
			t.Fatalf("text memo: digest %s names %s, which names %s back", d[:12], fp[:12], st.textOf[fp])
		}
		if !st.lru.Contains(fp) {
			t.Fatalf("text memo names %s, which the store does not hold", fp[:12])
		}
	}
	return len(st.texts)
}

// TestLoadTextParsesARepeatedTextOnce: the second LoadText of a text is a
// store hit answered with the graph the first one stored, unparsed.
func TestLoadTextParsesARepeatedTextOnce(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	g := ingestTestGraph(t)
	text := inlineText(t, g)
	g1, fp1, err := st.LoadText(text)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != graph.Fingerprint(g) {
		t.Fatalf("LoadText fingerprint %s, want %s", fp1, graph.Fingerprint(g))
	}
	g2, fp2, err := st.LoadText(text)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g1 || fp2 != fp1 {
		t.Fatal("the repeated text was parsed again")
	}
	if h, m := counter(reg, "ingest.store_hits"), counter(reg, "ingest.store_misses"); h != 1 || m != 1 {
		t.Fatalf("store_hits = %d, store_misses = %d; want 1 and 1", h, m)
	}
}

// TestLoadTextAfterUpload: a text of a graph an upload already stored is
// parsed once, and from then on answered with the uploaded graph.
func TestLoadTextAfterUpload(t *testing.T) {
	st := NewStore(64<<20, obs.NewRegistry())
	g := ingestTestGraph(t)
	fp := graph.Fingerprint(g)
	st.Put(fp, g)
	text := inlineText(t, g)
	for i := 0; i < 2; i++ {
		got, gotFP, err := st.LoadText(text)
		if err != nil || gotFP != fp {
			t.Fatalf("load %d: fingerprint %s, err %v; want %s", i, gotFP, err, fp)
		}
		if i == 1 && got != g {
			t.Fatal("the memoised text did not resolve to the stored graph")
		}
	}
	if st.Stats().Entries != 1 {
		t.Fatalf("store holds %d entries, want the one graph", st.Stats().Entries)
	}
}

// TestLoadTextVariantsShareOneMemoEntry: texts that differ only in comments
// and whitespace are one graph, and the memo keeps one digest for it — the
// newest — however many variants arrive.
func TestLoadTextVariantsShareOneMemoEntry(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	g := ingestTestGraph(t)
	text := inlineText(t, g)
	variants := []string{text, "# a comment\n" + text, text + "\n\n", strings.ReplaceAll(text, " ", "\t")}
	for i, v := range variants {
		_, fp, err := st.LoadText(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if fp != graph.Fingerprint(g) {
			t.Fatalf("variant %d: fingerprint %s, want %s", i, fp, graph.Fingerprint(g))
		}
		if n := memoLen(t, st); n != 1 {
			t.Fatalf("after variant %d the memo holds %d digests for one graph", i, n)
		}
		if st.texts[textDigest(v)] != fp {
			t.Fatalf("variant %d is not the remembered text", i)
		}
	}
	// The first variant was displaced, so it parses again.
	if _, _, err := st.LoadText(variants[0]); err != nil {
		t.Fatal(err)
	}
	if m := counter(reg, "ingest.store_misses"); m != int64(len(variants))+1 {
		t.Fatalf("store_misses = %d, want %d", m, len(variants)+1)
	}
}

// TestStorePathsForgetEvictedGraphs: a path whose graph was evicted leaves
// the path index with it, so the index never outgrows the store.
func TestStorePathsForgetEvictedGraphs(t *testing.T) {
	st := NewStore(1, obs.NewRegistry()) // clamps to 1 MiB: one big graph at a time
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		path := filepath.Join(dir, fmt.Sprintf("g%d.dmgb", i))
		if err := graph.WriteFile(path, bigGraph(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.LoadPath(path); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		paths, entries := len(st.paths), st.lru.Len()
		st.mu.Unlock()
		if paths > entries {
			t.Fatalf("after %d paths: %d remembered for %d stored graphs", i+1, paths, entries)
		}
	}
}

// TestLoadTextForgetsEvictedGraphs: the memo never outgrows the store, and a
// text whose graph was evicted parses again.
func TestLoadTextForgetsEvictedGraphs(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(1, reg) // clamps to 1 MiB: one big graph at a time
	texts := make([]string, 4)
	for i := range texts {
		texts[i] = inlineText(t, bigGraph(t, uint64(i+1)))
		if _, _, err := st.LoadText(texts[i]); err != nil {
			t.Fatal(err)
		}
		if n, entries := memoLen(t, st), st.Stats().Entries; n > entries {
			t.Fatalf("after %d texts: %d remembered for %d stored graphs", i+1, n, entries)
		}
	}
	misses := counter(reg, "ingest.store_misses")
	if _, _, err := st.LoadText(texts[0]); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "ingest.store_misses"); got != misses+1 {
		t.Fatalf("the text of an evicted graph did not parse again (store_misses %d → %d)", misses, got)
	}
}

// TestLoadTextMalformedIsNeverMemoised: a text that fails to parse fails the
// same way every time, and leaves nothing behind.
func TestLoadTextMalformedIsNeverMemoised(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	const bad = "g 3 2\ne 0 1 1\ne 1 7 1\n"
	var errs []string
	for i := 0; i < 2; i++ {
		_, _, err := st.LoadText(bad)
		if err == nil {
			t.Fatal("malformed text accepted")
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("two loads of one malformed text failed differently: %q, %q", errs[0], errs[1])
	}
	if _, err := graph.ReadText(strings.NewReader(bad)); err == nil || err.Error() != errs[0] {
		t.Fatalf("LoadText error %q is not ReadText's %v", errs[0], err)
	}
	if memoLen(t, st) != 0 || st.Stats().Entries != 0 {
		t.Fatal("a failed parse left a memo entry or a graph behind")
	}
	if m := counter(reg, "ingest.store_misses"); m != 2 {
		t.Fatalf("store_misses = %d, want 2", m)
	}
}

// TestLoadTextSingleFlight: concurrent loads of one unseen text parse it
// once; the rest wait for that parse or hit the memo it leaves.
func TestLoadTextSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64<<20, reg)
	g := ingestTestGraph(t)
	text := inlineText(t, g)
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, fp, err := st.LoadText(text); err != nil || fp != graph.Fingerprint(g) {
				errs <- fmt.Errorf("fingerprint %s, err %v", fp, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := counter(reg, "ingest.store_misses"); m != 1 {
		t.Fatalf("store_misses = %d, want 1 (single flight)", m)
	}
}

// TestLoadTextTouchesTheSpillFile: a memo hit restores a spill file the
// disk tier lost, as depositing the parsed graph did.
func TestLoadTextTouchesTheSpillFile(t *testing.T) {
	dir := t.TempDir()
	st, _ := spillStore(t, dir)
	g := ingestTestGraph(t)
	fp := graph.Fingerprint(g)
	text := inlineText(t, g)
	if _, _, err := st.LoadText(text); err != nil {
		t.Fatal(err)
	}
	st.spill.discard(fp, false) // the index forgets the file, as after a quarantine
	if err := os.Remove(spillPath(dir, fp)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadText(text); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spillPath(dir, fp)); err != nil || !st.spill.contains(fp) {
		t.Fatalf("memo hit left no spill file behind: %v", err)
	}
}

// BenchmarkLoadText prices an inline graph of serve_hit_small's shape (ER,
// n = 2000, m = 6000) through the store: a miss parses and fingerprints it, a
// hit only hashes the text — whose allocations must not grow with it.
func BenchmarkLoadText(b *testing.B) {
	g, err := gen.ErdosRenyi(2000, 6000, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	text := inlineText(b, g)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			st := NewStore(64<<20, nil)
			if _, _, err := st.LoadText(text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		st := NewStore(64<<20, nil)
		if _, _, err := st.LoadText(text); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := st.LoadText(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}
