package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/order"
)

// grid512Results is the text of serve_warm_ref's two results: a matching
// and a coloring of the 512² weighted grid.
func grid512Results(tb testing.TB) (mates, colors string) {
	tb.Helper()
	g, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := coloring.Greedy(g, order.Natural, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return string(matching.AppendMates(nil, matching.LocallyDominant(g))), string(coloring.AppendColors(nil, c))
}

// FuzzResponseBody holds writeResponse to json.NewEncoder(w).Encode, the
// reference: for any Response both fail or both write the same bytes, and
// Content-Length counts them.
func FuzzResponseBody(f *testing.F) {
	small := "matching 6\n0 1\n2 3\n4 5\n"
	colors := "coloring 5\n0\n1\n0\n17\n-1\n"
	for _, s := range []struct {
		id, algo, fp, tenant, trace, result string
		cached                              bool
		weight, elapsed                     float64
	}{
		{"job-1", AlgoMatch, "ab12", "default", "0af7651916cd43dd8448eb211c80319c", small, false, 6.5, 0.012},
		{"job-2", AlgoColor, "ab12", "", "", colors, true, 0, 0},
		{"job-3", "jp", "", "t", "", "", false, -0.0, 1e-9},
		// HTML, controls, quotes and backslashes, in the result and around it.
		{"<job>&", `"quoted"\`, "\x00\x1f\x7f", "a\b\f\n\r\tb", "<script>", "</x>&amp;\"\\\x01\x08\x0c\x1b\x7f", false, 1, 2},
		// A field spelling what the splice looks for.
		{`"result":""`, `"result":"`, `","result":"","`, "", "", `"result":""`, true, 1e21, 1e-7},
		// Invalid UTF-8, U+FFFD spelled validly, the line separators, other
		// multi-byte runes.
		{"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "a\xffb\xc3(\xe2\x80\xa8\xe2\x80\xa9\xef\xbf\xbd\u2027\u202a é 日本 😀\xf0\x9f", false, math.MaxFloat64, math.SmallestNonzeroFloat64},
		// Longer than escapeChunk: runes, escapes and invalid bytes across
		// the chunk boundaries.
		{"long", AlgoColor, "", "", "", "x" + strings.Repeat("é日\xe2\x80\xa8<\xff\n", 1000), false, 0, 0},
		{"long", AlgoMatch, "", "", "", strings.Repeat(small, 1000), false, 0, 0},
		// Six bytes out for every byte in, the most a chunk can write, and a
		// line separator starting on a chunk's last byte.
		{"worst", AlgoMatch, "", "", "", strings.Repeat("\x01", 2*4096-1) + "\u2028" + strings.Repeat("\x1f", 4096), false, 0, 0},
		// Values encoding/json refuses.
		{"nan", AlgoMatch, "", "", "", small, false, math.NaN(), 0},
		{"inf", AlgoColor, "", "", "", colors, false, 0, math.Inf(1)},
	} {
		f.Add(s.id, s.algo, s.fp, s.tenant, s.trace, s.result, s.cached, 4, s.weight, 3, 4, 2, int64(7), int64(16), int64(1234), s.elapsed)
	}
	f.Fuzz(func(t *testing.T, id, algo, fp, tenant, trace, result string, cached bool,
		ranks int, weight float64, card, ncolors, rounds int, conflicts, msgs, nbytes int64, elapsed float64) {
		resp := &Response{
			JobID: id, Cached: cached, Algorithm: algo, Ranks: ranks, Fingerprint: fp, Tenant: tenant, TraceID: trace,
			Weight: weight, Cardinality: card, Colors: ncolors, Rounds: rounds, Conflicts: conflicts,
			Messages: msgs, Bytes: nbytes, Result: result, ElapsedSeconds: elapsed,
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		rec := httptest.NewRecorder()
		gotErr := writeResponse(rec, resp)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v: writeResponse says %v, Encode %v", resp, gotErr, wantErr)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("writeResponse wrote\n%q\nEncode writes\n%q", got, want.Bytes())
		}
		if gotErr != nil {
			return
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, want.Len())
		}
	})
}

// BenchmarkResponseBody encodes serve_warm_ref's answers, the 512² grid's
// matching (≈ 1.8 MB of text) and coloring (≈ 0.5 MB), by appendResponse
// and, for comparison, by the json.Encoder it replaced — each into a
// buffer it reuses, as both do in the daemon.
func BenchmarkResponseBody(b *testing.B) {
	mates, colors := grid512Results(b)
	for _, tc := range []struct {
		name string
		resp Response
	}{
		{"mates", Response{JobID: "job-1", Algorithm: AlgoMatch, Ranks: 4, Fingerprint: "ab12", Tenant: "default",
			Weight: 123456.789, Cardinality: 131072, Messages: 14, Bytes: 9100, Result: mates, ElapsedSeconds: 0.02}},
		{"colors", Response{JobID: "job-2", Algorithm: AlgoColor, Ranks: 4, Fingerprint: "ab12", Tenant: "default",
			Colors: 4, Rounds: 2, Conflicts: 1500, Messages: 14, Bytes: 9100, Result: colors, ElapsedSeconds: 0.005}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.resp.Result)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendResponse(buf[:0], &tc.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/encoding_json", func(b *testing.B) {
			b.SetBytes(int64(len(tc.resp.Result)))
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(&tc.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
