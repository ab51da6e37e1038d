package graph

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// triangle returns K3 with weights 3, 2, 1 — the paper's Fig. 3.1 example.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := BuildUndirected(3, []Edge{
		{U: 0, V: 1, W: 3},
		{U: 0, V: 2, W: 2},
		{U: 1, V: 2, W: 1},
	}, DedupeFirst)
	if err != nil {
		t.Fatalf("BuildUndirected: %v", err)
	}
	return g
}

func TestBuildTriangle(t *testing.T) {
	g := triangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v, want n=3 m=3", g)
	}
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) = %d, want 2", got)
	}
	w, ok := g.EdgeWeight(1, 0)
	if !ok || w != 3 {
		t.Errorf("EdgeWeight(1,0) = %g,%v, want 3,true", w, ok)
	}
	if g.HasEdge(0, 0) {
		t.Error("HasEdge(0,0) = true on simple graph")
	}
}

func TestBuildDropsSelfLoops(t *testing.T) {
	g, err := BuildUndirected(2, []Edge{{U: 0, V: 0, W: 9}, {U: 0, V: 1, W: 1}}, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := BuildUndirected(2, []Edge{{U: 0, V: 2}}, DedupeFirst); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := BuildUndirected(-1, nil, DedupeFirst); err == nil {
		t.Fatal("expected negative-n error")
	}
}

func TestDedupePolicies(t *testing.T) {
	dup := []Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 0, W: 5}}
	for _, tc := range []struct {
		policy DedupePolicy
		want   float64
	}{
		{DedupeFirst, 2},
		{DedupeSum, 7},
		{DedupeMax, 5},
	} {
		g, err := BuildUndirected(2, dup, tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 1 {
			t.Fatalf("policy %v: NumEdges = %d, want 1", tc.policy, g.NumEdges())
		}
		if w, _ := g.EdgeWeight(0, 1); w != tc.want {
			t.Errorf("policy %v: weight = %g, want %g", tc.policy, w, tc.want)
		}
	}
}

// TestDedupeFirstKeepsInputOrder: which parallel edge is "first" is decided
// by the edge list, not by the sort — under an unstable sort DedupeFirst kept
// an arbitrary one (ReadText, the inline-job path, uses this policy) and
// DedupeSum added in an arbitrary order.
func TestDedupeFirstKeepsInputOrder(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 2000)
	first := map[[2]Vertex]float64{}
	sum := map[[2]Vertex]float64{}
	for i := range edges {
		u, v := Vertex(rng.Intn(n)), Vertex(rng.Intn(n))
		// Weights spread over 32 binary orders of magnitude, so that a sum
		// taken in another order differs.
		e := Edge{U: u, V: v, W: rng.Float64() * float64(uint64(1)<<rng.Intn(32))}
		edges[i] = e
		key := [2]Vertex{min(u, v), max(u, v)}
		if _, seen := first[key]; !seen {
			first[key] = e.W
		}
		sum[key] += e.W
	}
	for _, tc := range []struct {
		policy DedupePolicy
		want   map[[2]Vertex]float64
	}{{DedupeFirst, first}, {DedupeSum, sum}} {
		g, err := BuildUndirected(n, edges, tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		wrong := 0
		g.ForEachEdge(func(u, v Vertex, w float64) {
			if w != tc.want[[2]Vertex{u, v}] {
				wrong++
			}
		})
		if wrong > 0 {
			t.Errorf("policy %v: %d of %d merged edges do not carry the weight input order gives", tc.policy, wrong, g.NumEdges())
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := BuildUndirected(0, nil, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 || g.MinDegree() != 0 {
		t.Fatalf("empty graph misreports: %v", g)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := BuildUndirected(5, []Edge{{U: 1, V: 3, W: 1}}, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 1 {
		t.Fatalf("degrees = [%d..%d], want [0..1]", g.MinDegree(), g.MaxDegree())
	}
	if got := CountComponents(g); got != 4 {
		t.Fatalf("components = %d, want 4", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := triangle(t)

	asym := base.Clone()
	asym.W[0] = 42 // break weight symmetry
	if err := asym.Validate(); err == nil {
		t.Error("Validate accepted asymmetric weights")
	}

	loop := base.Clone()
	loop.Adj[0] = 0 // self loop
	if err := loop.Validate(); err == nil {
		t.Error("Validate accepted self loop")
	}

	unsorted := base.Clone()
	unsorted.Adj[0], unsorted.Adj[1] = unsorted.Adj[1], unsorted.Adj[0]
	unsorted.W[0], unsorted.W[1] = unsorted.W[1], unsorted.W[0]
	if err := unsorted.Validate(); err == nil {
		t.Error("Validate accepted unsorted adjacency")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle(t)
	edges := g.Edges()
	g2, err := BuildUndirected(g.NumVertices(), edges, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Adj, g2.Adj) || !reflect.DeepEqual(g.W, g2.W) {
		t.Fatal("Edges -> Build round trip changed graph")
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := randomTestGraph(t, 25, 60, 11)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Xadj, g2.Xadj) || !reflect.DeepEqual(g.Adj, g2.Adj) {
		t.Fatal("text round trip changed structure")
	}
	for i := range g.W {
		if g.W[i] != g2.W[i] {
			t.Fatalf("text round trip changed weight %d: %g vs %g", i, g.W[i], g2.W[i])
		}
	}
}

// TestReadTextHeaderIsOnlyAClaim: a header declaring more edges than any
// stream could carry must fail on the count, not in the first allocation.
func TestReadTextHeaderIsOnlyAClaim(t *testing.T) {
	if _, err := ReadText(bytes.NewReader([]byte("g 4 9000000000000000000\ne 0 1 1\n"))); err == nil {
		t.Fatal("accepted a header declaring 9e18 edges over a one-edge stream")
	}
}

// TestReadTextVertexClaim: the vertex count sizes BuildUndirected's offsets,
// so a claim above 2²⁰ must be backed by at least that many input bytes — the
// 16-byte body asking for 16 GiB is refused, by both entry points, without
// the allocation — while honest inputs on either side of the line parse.
func TestReadTextVertexClaim(t *testing.T) {
	const hostile = "g 2000000000 0\n"
	for name, read := range map[string]func(io.Reader) (*Graph, error){"ReadText": ReadText, "ReadAuto": ReadAuto} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(strings.NewReader(hostile))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted %q", name, hostile)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s allocated %d MiB refusing %q", name, grew>>20, hostile)
		}
	}
	if _, err := ReadText(strings.NewReader("g -1 0\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("negative vertex count: got %v, want a refusal at the header line", err)
	}
	if g, err := ReadText(strings.NewReader("g 1000 0\n")); err != nil || g.NumVertices() != 1000 {
		t.Errorf("g 1000 0: %v", err)
	}
	// A 512x512 grid: the largest text graph the benchmark parses.
	const k = 512
	var grid bytes.Buffer
	fmt.Fprintf(&grid, "g %d %d\n", k*k, 2*k*(k-1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if j+1 < k {
				fmt.Fprintf(&grid, "e %d %d 1\n", i*k+j, i*k+j+1)
			}
			if i+1 < k {
				fmt.Fprintf(&grid, "e %d %d 1\n", i*k+j, (i+1)*k+j)
			}
		}
	}
	if g, err := ReadText(&grid); err != nil || g.NumVertices() != k*k || g.NumEdges() != 2*k*(k-1) {
		t.Errorf("512x512 grid: %v", err)
	}
	// Above the line, a claim the input's own length backs is honoured.
	n := maxUnbackedVertices + 1
	backed := fmt.Sprintf("g %d 0\n", n) + strings.Repeat("#"+strings.Repeat(" ", 62)+"\n", n/64+1)
	if g, err := ReadText(strings.NewReader(backed)); err != nil || g.NumVertices() != n {
		t.Errorf("claim of %d vertices backed by %d bytes: %v", n, len(backed), err)
	}
}

func TestReadTextErrors(t *testing.T) {
	for name, in := range map[string]string{
		"edge before header": "e 0 1 1\n",
		"bad header":         "g one two\n",
		"edge count lie":     "g 2 5\ne 0 1 1\n",
		"unknown record":     "g 1 0\nz\n",
	} {
		if _, err := ReadText(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBipartiteBuildAndValidate(t *testing.T) {
	b, err := BuildBipartite(2, 3, []Entry{
		{Row: 0, Col: 0, W: 1}, {Row: 0, Col: 2, W: 5}, {Row: 1, Col: 1, W: 2},
	}, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ValidateBipartite(); err != nil {
		t.Fatal(err)
	}
	if b.NumVertices() != 5 || b.NumEdges() != 3 {
		t.Fatalf("bipartite %v, want n=5 m=3", b.Graph)
	}
	if !b.IsRow(b.RowID(1)) || b.IsRow(b.ColID(0)) {
		t.Error("row/col id classification wrong")
	}
	if _, err := BuildBipartite(2, 2, []Entry{{Row: 2, Col: 0}}, DedupeFirst); err == nil {
		t.Error("accepted out-of-range entry")
	}
}

func TestSummarize(t *testing.T) {
	g := triangle(t)
	s := Summarize(g)
	if s.Vertices != 3 || s.Edges != 3 || s.MinDegree != 2 || s.MaxDegree != 2 || s.Components != 1 || !s.Weighted {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Stats.String")
	}
}

func randomTestGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := Vertex(rng.Intn(n))
		v := Vertex(rng.Intn(n))
		edges = append(edges, Edge{U: u, V: v, W: float64(rng.Intn(1000)) + 0.5})
	}
	g, err := BuildUndirected(n, edges, DedupeFirst)
	if err != nil {
		t.Fatalf("randomTestGraph: %v", err)
	}
	return g
}

// Property: BuildUndirected always yields a Validate-clean graph, for any
// in-range edge multiset.
func TestQuickBuildAlwaysValid(t *testing.T) {
	f := func(raw []uint32, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: Vertex(int(raw[i]) % n),
				V: Vertex(int(raw[i+1]) % n),
				W: float64(raw[i]%97) + 1,
			})
		}
		g, err := BuildUndirected(n, edges, DedupeMax)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips exactly through both formats.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: Vertex(int(raw[i]) % n),
				V: Vertex(int(raw[i+1]) % n),
				W: float64(raw[i]) + 0.25,
			})
		}
		g, err := BuildUndirected(n, edges, DedupeFirst)
		if err != nil {
			return false
		}
		var bin, txt bytes.Buffer
		if WriteDMGB(&bin, g) != nil || WriteText(&txt, g) != nil {
			return false
		}
		gb, err1 := ReadDMGB(&bin)
		gt, err2 := ReadText(&txt)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(g, gb) &&
			reflect.DeepEqual(g.Xadj, gt.Xadj) && reflect.DeepEqual(g.Adj, gt.Adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightsAccessors(t *testing.T) {
	g := triangle(t)
	w := g.Weights(0)
	if len(w) != 2 || w[0] != 3 || w[1] != 2 {
		t.Fatalf("Weights(0) = %v", w)
	}
	unweighted := g.Clone()
	unweighted.W = nil
	if unweighted.Weights(0) != nil {
		t.Fatal("unweighted Weights != nil")
	}
	if unweighted.Weight(0) != 1 {
		t.Fatal("unweighted Weight != 1")
	}
	if w, ok := unweighted.EdgeWeight(0, 1); !ok || w != 1 {
		t.Fatalf("unweighted EdgeWeight = %g,%v", w, ok)
	}
}

func TestGraphString(t *testing.T) {
	if got := triangle(t).String(); got != "graph{n=3 m=3}" {
		t.Fatalf("String = %q", got)
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(triangle(t)) {
		t.Fatal("triangle disconnected")
	}
	two, _ := BuildUndirected(2, nil, DedupeFirst)
	if IsConnected(two) {
		t.Fatal("two isolated vertices connected")
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	g := randomTestGraph(t, 20, 50, 17)
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Adj, got.Adj) {
			t.Fatalf("%s round trip changed adjacency", name)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("read missing file")
	}
}

func TestValidateBipartiteCatchesSameSideEdge(t *testing.T) {
	// Hand-build a "bipartite" graph with a row-row edge.
	g, err := BuildUndirected(4, []Edge{{U: 0, V: 1, W: 1}}, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	b := &Bipartite{NRows: 2, NCols: 2, Graph: g}
	if err := b.ValidateBipartite(); err == nil {
		t.Fatal("accepted same-side edge")
	}
	short := &Bipartite{NRows: 3, NCols: 2, Graph: g}
	if err := short.ValidateBipartite(); err == nil {
		t.Fatal("accepted wrong vertex count")
	}
}

// TestReadTextErrorTexts pins every error ReadText can return — text and line
// number — and the spellings it accepts, so that a faster line parser cannot
// change what a caller of the inline-job path is told. The table was recorded
// before the parser stopped allocating per line.
func TestReadTextErrorTexts(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "graph: missing header"},
		{"# only a comment\n\n", "graph: missing header"},
		{"e 0 1 1\n", "graph: line 1: edge before header"},
		{"g 2\n", "graph: line 1: malformed header"},
		{"g 2 1 7\n", "graph: line 1: malformed header"},
		{"g one two\n", `graph: line 1: strconv.Atoi: parsing "one": invalid syntax`},
		{"g 99999999999999999999 0\n", `graph: line 1: strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"g -1 0\n", "graph: line 1: negative vertex count -1"},
		{"g 2 x\n", `graph: line 1: strconv.ParseInt: parsing "x": invalid syntax`},
		{"g 2 5\ne 0 1 1\n", "graph: header declares 5 edges, file has 1"},
		{"g 1 0\nz\n", `graph: line 2: unknown record "z"`},
		{"g 1 0\ngraph 1 0\n", `graph: line 2: unknown record "graph"`},
		{"g 3 1\ne 0\n", "graph: line 2: malformed edge"},
		{"g 3 1\ne 0 1 2 3\n", "graph: line 2: malformed edge"},
		{"g 3 1\ne 0 1 2 3 4 5 6\n", "graph: line 2: malformed edge"},
		{"# c\n\ng 3 1\n  e a 1 1\n", `graph: line 4: strconv.ParseInt: parsing "a": invalid syntax`},
		{"g 3 1\ne 0 b\n", `graph: line 2: strconv.ParseInt: parsing "b": invalid syntax`},
		{"g 3 1\ne 0 1x 1\n", `graph: line 2: strconv.ParseInt: parsing "1x": invalid syntax`},
		{"g 3 1\ne 0 - 1\n", `graph: line 2: strconv.ParseInt: parsing "-": invalid syntax`},
		{"g 3 1\ne 1_0 1 1\n", `graph: line 2: strconv.ParseInt: parsing "1_0": invalid syntax`},
		{"g 3 1\ne 0 2147483648 1\n", `graph: line 2: strconv.ParseInt: parsing "2147483648": value out of range`},
		{"g 3 1\ne -2147483649 0 1\n", `graph: line 2: strconv.ParseInt: parsing "-2147483649": value out of range`},
		{"g 3 1\ne 0 99999999999999999999999 1\n", `graph: line 2: strconv.ParseInt: parsing "99999999999999999999999": value out of range`},
		{"g 3 1\ne 0 1 heavy\n", `graph: line 2: strconv.ParseFloat: parsing "heavy": invalid syntax`},
		{"g 3 1\ne 0 1 1e999\n", `graph: line 2: strconv.ParseFloat: parsing "1e999": value out of range`},
		{"g 3 1\ne 0 5 1\n", "graph: edge {0,5} out of range [0,3)"},
		{"g 3 1\ne -1 2 1\n", "graph: edge {-1,2} out of range [0,3)"},
		{"g 3 1\r\ne 0 1 1\r\ne 1 2 1\r\n", "graph: header declares 1 edges, file has 2"},
	} {
		_, err := ReadText(strings.NewReader(tc.in))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q:\n  got  %v\n  want %s", tc.in, err, tc.want)
		}
	}
	// Spellings the parser accepts: signs, leading zeros, any Unicode white
	// space between and around fields, a missing weight, a final line without
	// a terminator, a second header.
	in := "g 9 9\n\u00a0g\t4\u20034 \ne +1 002 2.5\r\n\te\u00a03\v2\ne 0 1 0x1p-1\ne 0 3 1e0"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{U: 0, V: 1, W: 0.5}, {U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 2.5}, {U: 2, V: 3, W: 1}}
	if g.NumVertices() != 4 || !slices.Equal(g.Edges(), want) {
		t.Errorf("accepted spellings: n=%d edges=%v, want n=4 %v", g.NumVertices(), g.Edges(), want)
	}
}
