package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// fuzzPayloads are what the fuzzed sessions upload: a DMGB graph the store
// holds from the start, one it does not, a text graph, and the second DMGB
// stream with its last byte flipped. At 1 KiB chunks each spans a few.
func fuzzPayloads(t testing.TB) (payloads [][]byte, held *graph.Graph) {
	t.Helper()
	g := func(n int, m int64, seed uint64) *graph.Graph {
		g, err := gen.ErdosRenyi(n, m, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	held = g(40, 80, 1)
	a, _ := graph.EncodeDMGB(held)
	b, _ := graph.EncodeDMGB(g(60, 150, 2))
	var text strings.Builder
	if err := graph.WriteText(&text, g(50, 120, 3)); err != nil {
		t.Fatal(err)
	}
	corrupt := slices.Clone(b)
	corrupt[len(corrupt)-1] ^= 1
	return [][]byte{a, b, []byte(text.String()), corrupt}, held
}

// modelSession is the reference model's view of one session.
type modelSession struct {
	s        *session
	payload  []byte
	state    string
	chunks   map[int][]byte
	shortIdx int
	bytesIn  int64
	fp, ref  string
	released int  // runs of the session's release hook
	gone     bool // no longer in the manager's map
}

// FuzzUploadSession drives upload sessions through opens, appends (in
// order, out of order, replayed, conflicting, short, oversize, empty, with a
// wrong checksum), completes with right and wrong counts and cancelled ones,
// aborts, and sweeps at synthetic times, and checks every step against a
// reference model: the answer's code, the status (received ranges and next
// missing chunk included), a graph_ref equal to the fingerprint of the
// concatenated chunks exactly when the model completes, and the release hook
// run exactly once per session that leaves uploading, and never before.
func FuzzUploadSession(f *testing.F) {
	payloads, held := fuzzPayloads(f)
	oversize := make([]byte, defaultChunkBytes+1)
	// Ops: 0 open, 1 append in order, 2 append any, 3 complete, 4 abort,
	// 5 sweep, 6 status. Operands follow each op byte.
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 0, 2, 1, 0, 1, 0, 3, 0, 1, 0, 0, 0, 1, 1, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 0, 3, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 6, 0})
	f.Add([]byte{0, 0, 1, 2, 0, 2, 0, 2, 0, 1, 0, 2, 0, 0, 0, 2, 0, 3, 1, 0, 3, 0, 1, 4, 3, 0, 1, 0, 4, 0, 5, 1})
	f.Add([]byte{0, 2, 1, 1, 0, 3, 0, 1, 4, 0, 0, 3, 0, 2, 0, 5, 0, 6, 0, 5, 1, 6, 0})
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 1, 0, 3, 0, 1, 1, 3, 0, 1, 0, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		reg := obs.NewRegistry()
		store := NewStore(64<<20, reg)
		store.Put(graph.Fingerprint(held), held)
		m := NewManager(Config{TTL: time.Minute, MaxBytes: 4 << 10, Store: store, Registry: reg})
		known := map[string]bool{graph.Fingerprint(held): true}
		var sessions []*modelSession
		expired := int64(0)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		pick := func() *modelSession {
			if len(sessions) == 0 {
				return nil
			}
			ms := sessions[next()%len(sessions)]
			if _, ok := m.lookup(ms.s.id); ok == ms.gone {
				t.Fatalf("session %s: in the manager %v, model says gone %v", ms.s.id, ok, ms.gone)
			}
			if ms.gone {
				return nil
			}
			return ms
		}
		// chunkOf is chunk idx of the session's payload, or up to 1 KiB of
		// filler past its end.
		chunkOf := func(ms *modelSession, idx int) []byte {
			size := int(ms.s.chunkBytes)
			if off := idx * size; off >= 0 && off < len(ms.payload) {
				return ms.payload[off:min(off+size, len(ms.payload))]
			}
			return bytes.Repeat([]byte{'#'}, min(size, minChunkBytes))
		}
		code := func(err error) int {
			if err == nil {
				return http.StatusOK
			}
			ref, ok := err.(*Refusal)
			if !ok {
				t.Fatalf("answer %v is not a *Refusal", err)
			}
			return ref.Status
		}
		checkStatus := func(ms *modelSession, st *Status) {
			t.Helper()
			want := Status{UploadID: ms.s.id, State: ms.state, ChunkBytes: ms.s.chunkBytes,
				ReceivedChunks: len(ms.chunks), ReceivedBytes: ms.bytesIn, Fingerprint: ms.fp, GraphRef: ms.ref}
			if ms.state == StateUploading {
				idxs := make([]int, 0, len(ms.chunks))
				for i := range ms.chunks {
					idxs = append(idxs, i)
				}
				slices.Sort(idxs)
				for _, i := range idxs {
					if n := len(want.ReceivedRanges); n > 0 && want.ReceivedRanges[n-1][1] == i {
						want.ReceivedRanges[n-1][1]++
					} else {
						want.ReceivedRanges = append(want.ReceivedRanges, [2]int{i, i + 1})
					}
				}
				for ms.chunks[want.NextMissing] != nil {
					want.NextMissing++
				}
			}
			got := *st
			got.Error, got.ExpiresUnixMillis = "", 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session %s: status %+v, want %+v", ms.s.id, got, want)
			}
		}
		appendChunk := func(ms *modelSession, idx int, data []byte, sum string) {
			st, err := m.Append(ms.s, idx, data, sum)
			want := http.StatusOK
			prev, have := ms.chunks[idx]
			short := int64(len(data)) < ms.s.chunkBytes
			switch {
			case idx < 0, int64(len(data)) > ms.s.chunkBytes, len(data) == 0:
				want = http.StatusBadRequest
			case sum != "" && sum != hexSum(data):
				want = http.StatusBadRequest
			case ms.state == StateFailed:
				want = http.StatusConflict
			case ms.state != StateUploading:
			case have:
				if !bytes.Equal(prev, data) {
					want = http.StatusConflict
				}
			case short && ms.shortIdx >= 0:
				want = http.StatusConflict
			case short && slices.ContainsFunc(keys(ms.chunks), func(i int) bool { return i > idx }):
				want = http.StatusConflict
			case !short && ms.shortIdx >= 0 && idx > ms.shortIdx:
				want = http.StatusConflict
			case ms.bytesIn+int64(len(data)) > m.cfg.MaxBytes:
				want = http.StatusRequestEntityTooLarge
			default:
				if short {
					ms.shortIdx = idx
				}
				ms.chunks[idx] = data
				ms.bytesIn += int64(len(data))
				if hdr, err := graph.ParseDMGBHeader(data); idx == 0 && err == nil {
					ms.fp = hdr.Fingerprint
					if known[ms.fp] {
						ms.ref = ms.fp
						ms.state = StateShortCircuit
					}
				}
			}
			if got := code(err); got != want {
				t.Fatalf("session %s: append %d (%d bytes): %d %v, want %d", ms.s.id, idx, len(data), got, err, want)
			}
			if err == nil {
				checkStatus(ms, st)
			}
		}

		for steps := 0; len(ops) > 0 && steps < 200; steps++ {
			switch next() % 7 {
			case 0: // open
				chunkBytes := []int64{minChunkBytes, minChunkBytes, 0, minChunkBytes - 1}[next()%4]
				payload := payloads[next()%len(payloads)]
				live := 0
				for _, ms := range sessions {
					if !ms.gone {
						live++
					}
				}
				ms := &modelSession{payload: payload, state: StateUploading, chunks: map[int][]byte{}, shortIdx: -1}
				s, err := m.Open(chunkBytes, func() { ms.released++ })
				if refuse := chunkBytes == minChunkBytes-1 || live >= maxSessions; refuse != (err != nil) || refuse && ms.released != 1 {
					t.Fatalf("open %d with %d live: %v, release ran %d times", chunkBytes, live, err, ms.released)
				}
				if err == nil {
					ms.s = s
					sessions = append(sessions, ms)
				}
			case 1: // append the lowest missing chunk
				if ms := pick(); ms != nil {
					idx := 0
					for ms.chunks[idx] != nil {
						idx++
					}
					appendChunk(ms, idx, chunkOf(ms, idx), "")
				}
			case 2: // append anything
				if ms := pick(); ms != nil {
					idx := next()%8 - 1
					data := chunkOf(ms, idx)
					sum := ""
					switch next() % 6 {
					case 1: // conflicting
						data = slices.Clone(data)
						data[next()%len(data)] ^= 0x55
					case 2: // short
						data = data[:1+next()%len(data)]
					case 3:
						data = oversize[:ms.s.chunkBytes+1]
					case 4:
						data = nil
					case 5:
						sum = hexSum(append(slices.Clone(data), 0))
					}
					appendChunk(ms, idx, data, sum)
				}
			case 3: // complete
				if ms := pick(); ms != nil {
					n := (len(ms.payload)+int(ms.s.chunkBytes)-1)/int(ms.s.chunkBytes) + next()%3 - 1
					ctx, cancel := context.WithCancel(context.Background())
					cancelled := next()%4 == 0
					if cancelled {
						cancel()
					}
					st, err := m.Complete(ms.s, n, ctx.Done())
					cancel()
					want := http.StatusOK
					switch {
					case ms.state == StateFailed:
						want = http.StatusConflict
					case ms.state != StateUploading:
					case n <= 0:
						want = http.StatusBadRequest
					case slices.ContainsFunc(keys(ms.chunks), func(i int) bool { return i >= n }) ||
						len(ms.chunks) < n || ms.shortIdx >= 0 && ms.shortIdx != n-1:
						want = http.StatusConflict
					case cancelled:
						want = http.StatusGatewayTimeout
					default:
						var whole []byte
						for i := 0; i < n; i++ {
							whole = append(whole, ms.chunks[i]...)
						}
						if g, derr := graph.ReadAuto(bytes.NewReader(whole)); derr != nil {
							want = http.StatusUnprocessableEntity
							ms.state = StateFailed
						} else {
							ms.fp = graph.Fingerprint(g)
							ms.ref = ms.fp
							known[ms.ref] = true
							ms.state = StateComplete
						}
					}
					if got := code(err); got != want {
						t.Fatalf("session %s: complete %d: %d %v, want %d", ms.s.id, n, got, err, want)
					}
					if err == nil {
						checkStatus(ms, st)
					}
				}
			case 4: // abort
				if ms := pick(); ms != nil {
					if !m.Abort(ms.s.id) {
						t.Fatalf("abort of live session %s refused", ms.s.id)
					}
					ms.gone = true
					if ms.state == StateUploading {
						ms.state = StateFailed
					}
				}
			case 5: // sweep at a synthetic time: an hour back expires nothing, an hour on everything
				if next()%2 == 0 {
					m.sweep(time.Now().Add(-time.Hour))
					break
				}
				m.sweep(time.Now().Add(time.Hour))
				for _, ms := range sessions {
					if !ms.gone && ms.state == StateUploading {
						ms.state = StateFailed
						expired++
					}
					ms.gone = true
				}
			case 6: // status
				if ms := pick(); ms != nil {
					checkStatus(ms, m.Status(ms.s))
				}
			}
			for _, ms := range sessions {
				if want := map[bool]int{true: 0, false: 1}[ms.state == StateUploading]; ms.released != want {
					t.Fatalf("session %s in state %s: release ran %d times, want %d", ms.s.id, ms.state, ms.released, want)
				}
			}
		}
		if got := reg.Snapshot().Counters["ingest.sessions_expired"]; got != expired {
			t.Fatalf("sessions_expired = %d, want %d", got, expired)
		}
		m.Stop() // fails the sessions still uploading
		for _, ms := range sessions {
			if ms.released != 1 {
				t.Fatalf("session %s: release ran %d times by shutdown, want 1", ms.s.id, ms.released)
			}
		}
	})
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func keys(m map[int][]byte) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
