package service

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/graph"
)

// circuitText is a circuit graph of side×side vertices in the text format,
// as serve_cold_inline sends it inline (that workload uses side 128).
func circuitText(tb testing.TB, side int) string {
	tb.Helper()
	g, err := gen.Circuit(side, side, 0.45, true, 1)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteText(&sb, g); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// TestClientBodiesTakeFastPath: what clients really send — client.Submit's
// json.Marshal of a Request, and the indented, newline-ended shape of jq —
// is decoded by decodeFast to the Request that was sent.
func TestClientBodiesTakeFastPath(t *testing.T) {
	reqs := []Request{
		{Algorithm: AlgoMatch, Graph: circuitText(t, 32), Params: dmgm.Params{Seed: 5<<24 + 17}},      // serve_cold_inline
		{Algorithm: AlgoColor, GraphRef: strings.Repeat("ab", 32), Partition: "block", NoCache: true}, // serve_warm_ref
		{Algorithm: AlgoColor, Graph: "# a comment\ng 3 2\ne 0 1 0.5\ne 1 2 -1e-07\n\t\r\"\\/"},
		{Algorithm: AlgoMatch, GraphRef: "/data/g é.dmgb", Ranks: 16, Partition: "bfs",
			Params: dmgm.Params{Seed: 1<<64 - 1, NoBundle: true}, TimeoutMillis: 1<<63 - 1},
		{Algorithm: AlgoColor, Graph: "g 1 0\n", Ranks: -3,
			Params: dmgm.Params{Superstep: 100, Comm: "broadcast", Distance2: true}, TimeoutMillis: -1},
		{Algorithm: " match ", Graph: "\n g 1 0\n", Partition: "\tblock"},
		{},
	}
	for i, want := range reqs {
		compact, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(&want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, append(indented, '\n')} {
			var got Request
			if !decodeFast(body, &got) {
				t.Errorf("request %d: %.80q left the fast path", i, body)
			} else if got != want {
				t.Errorf("request %d: decoded %+v, sent %+v", i, got, want)
			}
		}
	}
}

// FuzzDecodeRequest holds decodeRequest to json.Unmarshal, the reference: on
// any bytes both fail or both succeed, and then with the same Request.
func FuzzDecodeRequest(f *testing.F) {
	bench, err := json.Marshal(&Request{Algorithm: AlgoMatch, Graph: circuitText(f, 8), Params: dmgm.Params{Seed: 1<<24 + 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	// TestBadRequests' bodies.
	for _, r := range []Request{
		{Algorithm: "sort", Graph: "g 2 1\ne 0 1 1\n"},
		{Algorithm: AlgoMatch},
		{Algorithm: AlgoMatch, Graph: "g 2 1\ne 0 1 1\n", Ranks: 1 << 20},
		{Algorithm: AlgoMatch, Graph: "not a graph\n"},
		{Algorithm: AlgoMatch, Graph: "g 2000000000 0\n"},
		{Algorithm: AlgoMatch, Graph: "g 2 1\ne 0 1 1\n" + strings.Repeat("\n", 64)},
	} {
		body, err := json.Marshal(&r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	job := `{"algorithm":"match","graph":"g 6 3\ne 0 1 1\ne 2 3 2\ne 4 5 3\n"}`
	for _, s := range []string{
		job + " trailing garbage", job + job, job + "\n\t ", " " + job,
		`{"algorithm":"match","graph":"g 2 1\ne 0 1 1\n"}`,
		// Keys: case variants, unknown, duplicated, escaped.
		`{"Algorithm":"match","GRAPH":"g 1 0\n"}`, `{"algorithm":"match","colour":"red"}`,
		`{"algorithm":"match","graph_path":"/etc/hosts"}`,
		`{"ranks":2,"ranks":3,"algorithm":"color","algorithm":"match"}`, `{"\u0061lgorithm":"match"}`,
		// Escapes, UTF-8, control characters.
		`{"graph":"g 1 0\n"}`, `{ "graph" : " g 1 0" }`, `{"graph":"\ud800"}`, `{"graph":"a\b\f"}`, `{"graph":"é"}`,
		"{\"graph\":\"\xff\xfe\"}", "{\"graph\":\"a\x01b\"}", "{\"graph\":\"tab\there\"}", `{"graph":"\x"}`,
		// Numbers.
		`{"ranks":-0}`, `{"seed":-0}`, `{"ranks":01}`, `{"ranks":1e3}`, `{"ranks":1.0}`, `{"ranks":-}`,
		`{"seed":18446744073709551616}`, `{"timeout_ms":9223372036854775808}`, `{"ranks":"4"}`,
		// Literals and shapes.
		`null`, `{"graph":null}`, `{"no_cache":null}`, `{"distance2":truex}`, `{"no_bundle":1}`,
		`{}`, `{,}`, `{"a":1,}`, `[]`, ``, `{"graph":{"x":1}}`, `{"algorithm":"match"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want Request
		gotErr, wantErr := decodeRequest(body, &got), json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decodeRequest says %v, json.Unmarshal %v", body, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("%q: decodeRequest gives %+v, json.Unmarshal %+v", body, got, want)
		}
	})
}

// BenchmarkDecodeRequest decodes serve_cold_inline's body: a 128² circuit
// inline, about 1.25 MB.
func BenchmarkDecodeRequest(b *testing.B) {
	body, err := json.Marshal(&Request{Algorithm: AlgoMatch, Graph: circuitText(b, 128), Params: dmgm.Params{Seed: 1<<24 + 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req Request
		if err := decodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
