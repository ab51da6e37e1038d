package ingest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/lru"
	"repro/internal/obs"
)

// The spill tier is the persistence layer under the content-addressed graph
// store: every deposited graph's canonical DMGB encoding is written to a
// spill directory keyed by fingerprint (`<fp>.dmgb`), so a daemon restart
// does not invalidate the `graph_ref`s clients hold. Writes go through a
// temp file plus rename for crash atomicity — a SIGKILL mid-write leaves
// only a temp file the next startup sweeps, never a half spill file under a
// valid name. Reads re-verify end to end: the streaming decoder recomputes
// the content fingerprint against the embedded header, and the header must
// match the address the file was stored under. Anything that fails — a
// truncated file, a flipped bit, a renamed file, a stray non-DMGB file — is
// quarantined (renamed aside with a `.corrupt` suffix, counted in
// ingest.spill_corrupt, dropped from the index) without failing the daemon.
//
// The tier is LRU-bounded by bytes on disk, like the in-memory store above
// it: depositing past the budget deletes the least recently used spill
// files, whose refs then answer 404 exactly as memory-only eviction did.

// spillExt names spill files; the base name is the 64-hex fingerprint.
const spillExt = ".dmgb"

// quarantineExt marks files set aside by corruption handling; startup scans
// skip them so an operator can inspect or delete at leisure.
const quarantineExt = ".corrupt"

// spillTmpPattern shapes the temp files renames commit from; startup removes
// leftovers (a crash between create and rename).
const spillTmpPattern = ".spill-*.tmp"

var spillNameRe = regexp.MustCompile(`^[0-9a-f]{64}\.dmgb$`)

// SpillConfig configures the persistent tier of a Store.
type SpillConfig struct {
	// Dir is the spill directory, created if missing. Required.
	Dir string
	// MaxBytes bounds the bytes held on disk (clamped to at least 1 MiB).
	// Deposits beyond it evict least recently used spill files.
	MaxBytes int64
}

// spillTier is the disk side of a Store. Its mutex covers only the index;
// file IO happens outside it, relying on rename atomicity and the
// content-addressed naming (two concurrent writers of one fingerprint write
// identical bytes).
type spillTier struct {
	dir      string
	maxBytes int64

	mu  sync.Mutex
	idx *lru.Cache[string, struct{}] // fingerprint → nothing; cost = file size
	// doomed collects the files of evicted index entries (the cache's
	// on-evict callback appends under mu); index, which caused the eviction,
	// deletes them once it has released the lock.
	doomed []string

	bytesG       *obs.Gauge
	filesG       *obs.Gauge
	writeErrs    *obs.Counter
	rehydrations *obs.Counter
	corrupt      *obs.Counter
	evictions    *obs.Counter
}

// EnableSpill attaches a persistent tier to the store: the directory is
// scanned into an index of known fingerprints (headers only — no graph is
// decoded until a job asks for it), leftover temp files are removed, and
// anything unrecognizable is quarantined. Call once, before serving traffic.
func (s *Store) EnableSpill(cfg SpillConfig) error {
	if s.spill != nil {
		return fmt.Errorf("ingest: spill already enabled on %s", s.spill.dir)
	}
	if cfg.Dir == "" {
		return fmt.Errorf("ingest: SpillConfig.Dir is required")
	}
	if cfg.MaxBytes < 1<<20 {
		cfg.MaxBytes = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("ingest: creating spill dir: %w", err)
	}
	reg := s.reg
	sp := &spillTier{
		dir:          cfg.Dir,
		maxBytes:     cfg.MaxBytes,
		bytesG:       reg.Gauge("ingest.spill_bytes"),
		filesG:       reg.Gauge("ingest.spill_files"),
		writeErrs:    reg.Counter("ingest.spill_write_errors"),
		rehydrations: reg.Counter("ingest.spill_rehydrations"),
		corrupt:      reg.Counter("ingest.spill_corrupt"),
		evictions:    reg.Counter("ingest.spill_evictions"),
	}
	sp.idx = lru.New(cfg.MaxBytes, func(fp string, _ struct{}) {
		sp.doomed = append(sp.doomed, filepath.Join(sp.dir, fp+spillExt))
	})
	if err := sp.scan(); err != nil {
		return err
	}
	s.spill = sp
	return nil
}

// scan indexes the spill directory at startup: valid spill files enter the
// LRU ordered by modification time (oldest evicted first), temp files from
// an interrupted write are removed, quarantined files are skipped, and
// everything else is quarantined.
func (sp *spillTier) scan() error {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return fmt.Errorf("ingest: scanning spill dir: %w", err)
	}
	type candidate struct {
		fp    string
		size  int64
		mtime int64
	}
	var found []candidate
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, ".spill-"):
			os.Remove(filepath.Join(sp.dir, name)) //nolint:errcheck // crash leftover; best effort
			continue
		case strings.HasSuffix(name, quarantineExt):
			continue // already set aside
		case !spillNameRe.MatchString(name):
			// A stray file: not ours, not trustworthy near content-addressed
			// state. Set it aside and count it.
			sp.corrupt.Inc()
			sp.quarantineFile(name)
			continue
		}
		fp := strings.TrimSuffix(name, spillExt)
		info, err := de.Info()
		if err != nil {
			continue // raced a concurrent delete
		}
		if !sp.headerMatches(name, fp, info.Size()) {
			sp.corrupt.Inc()
			sp.quarantineFile(name)
			continue
		}
		found = append(found, candidate{fp: fp, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, c := range found {
		sp.index(c.fp, c.size)
	}
	return nil
}

// headerMatches cheaply validates a spill file at scan time: the fixed
// header must parse and its embedded fingerprint must equal the file's name.
// The body is not decoded — full content verification happens on rehydrate.
func (sp *spillTier) headerMatches(name, fp string, size int64) bool {
	if size < graph.DMGBHeaderSize {
		return false
	}
	f, err := os.Open(filepath.Join(sp.dir, name))
	if err != nil {
		return false
	}
	defer f.Close()
	var hb [graph.DMGBHeaderSize]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return false
	}
	hdr, err := graph.ParseDMGBHeader(hb[:])
	return err == nil && hdr.Fingerprint == fp
}

// contains reports a fingerprint indexed on disk, without touching LRU
// order — the probe behind Store.Contains and the upload short-circuit.
func (sp *spillTier) contains(fp string) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.idx.Contains(fp)
}

// write spills one graph, committing via temp file + rename so a crash at
// any instant leaves either the complete file or none. Failures are counted
// and swallowed: persistence is best-effort; the in-memory store already
// holds the graph.
func (sp *spillTier) write(fp string, g *graph.Graph) {
	if sp.touch(fp) {
		return // content-addressed: the file on disk is this graph
	}

	f, err := os.CreateTemp(sp.dir, spillTmpPattern)
	if err != nil {
		sp.writeErrs.Inc()
		return
	}
	tmp := f.Name()
	err = graph.WriteDMGB(f, g)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	var size int64
	if err == nil {
		info, serr := os.Stat(tmp)
		if serr != nil {
			err = serr
		} else {
			size = info.Size()
		}
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(sp.dir, fp+spillExt))
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort
		sp.writeErrs.Inc()
		return
	}
	sp.index(fp, size)
}

// load rehydrates one spilled graph, re-verifying it end to end: the
// streaming decoder recomputes the content fingerprint against the embedded
// header, and the header must name the address the file was stored under.
// Any failure quarantines the file and drops the index entry — the caller
// sees a plain miss, never a crash, and the single-flight layer above holds
// no record of the failure (a re-uploaded graph retries cleanly).
func (sp *spillTier) load(fp string) (*graph.Graph, error) {
	path := filepath.Join(sp.dir, fp+spillExt)
	f, err := os.Open(path)
	if err != nil {
		sp.discard(fp, false)
		return nil, fmt.Errorf("ingest: opening spill file: %w", err)
	}
	defer f.Close()
	g, hdr, err := graph.ReadDMGBWithHeader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		sp.discard(fp, true)
		return nil, fmt.Errorf("ingest: rehydrating %s: %w", fp[:12], err)
	}
	if hdr.Fingerprint != fp {
		sp.discard(fp, true)
		return nil, fmt.Errorf("ingest: spill file %s holds graph %s", fp[:12], hdr.Fingerprint[:12])
	}
	sp.touch(fp)
	sp.rehydrations.Inc()
	return g, nil
}

// discard drops a fingerprint from the index after a load failure,
// quarantining the file when one exists to inspect.
func (sp *spillTier) discard(fp string, quarantine bool) {
	sp.corrupt.Inc()
	sp.mu.Lock()
	sp.idx.Remove(fp)
	sp.gaugesLocked()
	sp.mu.Unlock()
	if quarantine {
		sp.quarantineFile(fp + spillExt)
	}
}

// quarantineFile renames a bad file aside so it stops matching the index
// and an operator can inspect it. Callers account it in ingest.spill_corrupt.
func (sp *spillTier) quarantineFile(name string) {
	from := filepath.Join(sp.dir, name)
	if err := os.Rename(from, from+quarantineExt); err != nil {
		os.Remove(from) //nolint:errcheck // fall back to dropping it
	}
}

// touch marks an indexed fingerprint recently used and reports whether it
// was indexed at all.
func (sp *spillTier) touch(fp string) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	_, ok := sp.idx.Get(fp)
	return ok
}

// index records one spill file. Entries the byte budget pushes out (never
// the newest) are counted, and their files — queued on sp.doomed by the
// on-evict callback — deleted once the lock is released.
func (sp *spillTier) index(fp string, size int64) {
	sp.mu.Lock()
	_, evicted := sp.idx.Put(fp, struct{}{}, size)
	sp.evictions.Add(int64(evicted))
	sp.gaugesLocked()
	doomed := sp.doomed
	sp.doomed = nil
	sp.mu.Unlock()
	for _, p := range doomed {
		os.Remove(p) //nolint:errcheck // the index entry is already gone
	}
}

func (sp *spillTier) gaugesLocked() {
	sp.bytesG.Set(sp.idx.Cost())
	sp.filesG.Set(int64(sp.idx.Len()))
}
