package expt

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"repro/internal/matching"
)

func quickOpts(buf *bytes.Buffer) Options {
	return Options{Out: buf, Quick: true, Seed: 7}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("demo", "A", "BB")
	tab.AddRow("x", 12)
	tab.AddRow(3.5, "y")
	tab.AddComment("note %d", 1)
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "A", "BB", "x", "12", "# note 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "A,BB\n") {
		t.Fatalf("csv header wrong: %q", csv.String())
	}
}

// tableChunks collects each Write, which RenderCSV issues once per table.
type tableChunks [][]byte

func (c *tableChunks) Write(p []byte) (int, error) {
	*c = append(*c, append([]byte(nil), p...))
	return len(p), nil
}

// TestCSVParsesBack reads every table a full run emits as CSV back through
// encoding/csv: each record must have as many fields as its table's header
// ("k x k grids, 24x24 per rank" and "integer [1,1000] (ties)" used to split
// into two).
func TestCSVParsesBack(t *testing.T) {
	var tables tableChunks
	o := quickOpts(new(bytes.Buffer))
	o.CSV = &tables
	if err := RunAll(o); err != nil {
		t.Fatal(err)
	}
	if len(tables) < 15 {
		t.Fatalf("only %d tables emitted as CSV", len(tables))
	}
	for _, tab := range tables {
		r := csv.NewReader(bytes.NewReader(tab))
		r.Comment = '#'
		r.FieldsPerRecord = -1
		records, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%v in:\n%s", err, tab)
		}
		if len(records) < 2 {
			t.Fatalf("table without rows:\n%s", tab)
		}
		for _, rec := range records[1:] {
			if len(rec) != len(records[0]) {
				t.Errorf("record %q has %d fields under a %d-field header %q", rec, len(rec), len(records[0]), records[0])
			}
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1.5e-5, "1.5e-05"},
		{0.25, "0.2500"},
		{3.25, "3.250"},
	} {
		if got := formatSeconds(tc.in); got != tc.want {
			t.Errorf("formatSeconds(%g) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFitLogTrend(t *testing.T) {
	// Perfect trend y = 2 + 3 ln p.
	ps := []int{1, 2, 4, 8}
	ys := make([]float64, len(ps))
	for i, p := range ps {
		ys[i] = 2 + 3*math.Log(float64(p))
	}
	f := FitLogTrend(ps, ys, 0)
	if got := f(16); math.Abs(got-(2+3*math.Log(16))) > 1e-9 {
		t.Fatalf("extrapolation = %g", got)
	}
	// Clamping.
	g := FitLogTrend([]int{2, 4}, []float64{5, 1}, 3)
	if got := g(64); got != 3 {
		t.Fatalf("clamped fit = %g, want 3", got)
	}
	// Degenerate inputs.
	if h := FitLogTrend(nil, nil, 2); h(10) != 2 {
		t.Fatal("empty fit ignored floor")
	}
	if h := FitLogTrend([]int{4}, []float64{9}, 0); h(4) != 9 {
		t.Fatal("single-point fit not constant")
	}
}

func TestTable11QuickRun(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table11(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 (as in the paper)", len(rows))
	}
	for _, r := range rows {
		// Quick-mode instances are tiny, so allow a wider band than the
		// paper's >90% (which full-size runs do reach); the hard guarantee
		// is 50%.
		if r.Quality < 80 || r.Quality > 100.0001 {
			t.Errorf("%s: quality %.2f%% outside the expected band", r.Name, r.Quality)
		}
		if r.Approx > r.Exact+1e-9 {
			t.Errorf("%s: approx %.2f exceeds optimum %.2f", r.Name, r.Approx, r.Exact)
		}
	}
	if !strings.Contains(buf.String(), "Table 1.1") {
		t.Error("missing table title")
	}
}

func TestTable51Render(t *testing.T) {
	var buf bytes.Buffer
	if err := Table51(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 5.1", "Fig 5.4", "Uniform 2D", "METIS-like"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 5.1 missing %q", want)
		}
	}
}

func TestFig51QuickWeakScaling(t *testing.T) {
	var buf bytes.Buffer
	match, color, err := Fig51(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(match) == 0 || len(color) == 0 {
		t.Fatal("empty series")
	}
	// Weak scaling: the model series should stay within a small factor of
	// the first point (the paper's near-flat curves).
	for _, rows := range [][]ScalingRow{match, color} {
		first := rows[0].Model
		for _, r := range rows {
			if r.Model > 5*first {
				t.Errorf("weak scaling blow-up at p=%d: %g vs %g", r.P, r.Model, first)
			}
			if r.Ideal != rows[0].Ideal {
				t.Errorf("weak ideal not flat at p=%d", r.P)
			}
		}
	}
}

func TestFig52QuickStrongScaling(t *testing.T) {
	var buf bytes.Buffer
	match, color, err := Fig52(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]ScalingRow{match, color} {
		// Strong scaling: model times must decrease substantially from the
		// first to the mid-range points (before the comm floor).
		if len(rows) < 3 {
			t.Fatal("too few points")
		}
		if rows[1].Model >= rows[0].Model {
			t.Errorf("no speedup from p=%d to p=%d (%g -> %g)",
				rows[0].P, rows[1].P, rows[0].Model, rows[1].Model)
		}
		// Ideal follows 1/p.
		r0 := rows[0]
		for _, r := range rows[1:] {
			want := r0.Ideal * float64(r0.P) / float64(r.P)
			if math.Abs(r.Ideal-want) > 1e-12*math.Max(1, want) {
				t.Errorf("ideal at p=%d is %g, want %g", r.P, r.Ideal, want)
			}
		}
	}
	// Weight invariance was checked inside Fig52; double-check rows carry it.
	var weights []string
	for _, r := range match {
		if r.Measured {
			weights = append(weights, r.Extra)
		}
	}
	for _, w := range weights[1:] {
		if w != weights[0] {
			t.Fatalf("matching weight varies: %v", weights)
		}
	}
}

func TestFig53QuickCircuitMatching(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig53(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("too few points")
	}
	if !strings.Contains(buf.String(), "Fig 5.3") {
		t.Error("missing figure title")
	}
}

func TestFig54QuickCircuitColoring(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig54(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("too few points")
	}
	// The unrefined partitioner must produce a clearly worse cut than
	// Fig 5.3's refined one at the same max procs; just require a
	// substantial cut fraction in the Input annotation of the last row.
	lastCut := rows[len(rows)-1].Input
	if !strings.Contains(lastCut, "cut") {
		t.Fatalf("missing cut annotation: %q", lastCut)
	}
}

// TestSynthesizedProfiles checks the model's input where no run happened: the
// traffic densities of a measured run, applied to the shares' structure.
func TestSynthesizedProfiles(t *testing.T) {
	shares, err := GridInstance{Side: 8, Seed: 1}.Shares(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureMatching(shares, matching.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var msgs, bytes int64
	for _, r := range m.Ranks {
		msgs += r.Msgs
		bytes += r.Bytes
	}
	if msgs == 0 || msgs != m.Traffic.SentMsgs || bytes != m.Traffic.SentBytes {
		t.Fatalf("ranks sent %d msgs / %d B, Traffic says %d / %d", msgs, bytes, m.Traffic.SentMsgs, m.Traffic.SentBytes)
	}
	st := structureOf(shares)
	cs := commScalarsOf(st, m)
	if cs.BytesPerCrossArc <= 0 {
		t.Fatalf("bytes per cross arc %g", cs.BytesPerCrossArc)
	}
	if cut := cutFraction(st); cut <= 0 || cut >= 1 {
		t.Fatalf("cut fraction %g of a 2x2-blocked grid", cut)
	}
	synth := cs.profiles(st, m.Epochs)
	if len(synth) != 4 {
		t.Fatal("wrong synthesized profile count")
	}
	for _, p := range synth {
		if p.EdgeOps == 0 || p.Epochs != m.Epochs {
			t.Fatalf("bad synthesized profile %+v", p)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablations(quickOpts(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"message bundling", "communication mode", "superstep size",
		"conflict resolution", "coloring order", "Jones",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

func TestTable11WeightSweep(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table11WeightSweep(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (3 instances x 3 schemes)", len(rows))
	}
	// The hypothesis itself: on every topology, log-uniform weights must
	// give at least the quality of narrow-uniform weights.
	byInst := map[string]map[string]float64{}
	for _, r := range rows {
		if byInst[r.Instance] == nil {
			byInst[r.Instance] = map[string]float64{}
		}
		byInst[r.Instance][r.Scheme] = r.Quality
	}
	for inst, m := range byInst {
		if m["log-uniform [1,403)"] < m["uniform (1,2)"]-2 {
			t.Errorf("%s: log-uniform quality %.2f%% not above uniform %.2f%%",
				inst, m["log-uniform [1,403)"], m["uniform (1,2)"])
		}
	}
}
