package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// TestMergeDisjointKeys: merging snapshots with no keys in common keeps both
// sides intact — including into a JSON-decoded snapshot whose empty sections
// are nil maps (omitempty).
func TestMergeDisjointKeys(t *testing.T) {
	a := NewRegistry()
	a.Counter("only.a").Add(1)
	b := NewRegistry()
	b.Counter("only.b").Add(2)
	b.Gauge("g.b").Set(4)
	b.Vec("v.b", 2).At(1).Add(8)
	b.Histogram("h.b", []int64{10}).Observe(3)

	// Round-trip a through JSON so its empty sections decode to nil maps.
	data, err := json.Marshal(&MetricsSnapshot{Counters: a.Snapshot().Counters})
	if err != nil {
		t.Fatal(err)
	}
	var s MetricsSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Gauges != nil || s.PerRank != nil || s.Histograms != nil {
		t.Fatal("test setup: decoded snapshot should have nil empty sections")
	}
	s.Merge(b.Snapshot()) // must not panic on the nil maps
	if s.Counters["only.a"] != 1 || s.Counters["only.b"] != 2 {
		t.Errorf("disjoint counters lost: %v", s.Counters)
	}
	if s.Gauges["g.b"] != 4 || s.PerRank["v.b"][1] != 8 || s.Histograms["h.b"].Count != 1 {
		t.Errorf("sections not initialized on demand: %+v", s)
	}
}

// TestMergeMismatchedHistogramBounds: merging histograms whose bounds differ
// keeps the receiver's shape and folds what overlaps — counts and sums stay
// conserved in total even though buckets past the shorter shape are clipped.
func TestMergeMismatchedHistogramBounds(t *testing.T) {
	a := NewRegistry()
	ha := a.Histogram("h", []int64{10, 100}) // 3 buckets
	ha.Observe(5)
	b := NewRegistry()
	hb := b.Histogram("h", []int64{10, 100, 1000, 10000}) // 5 buckets
	hb.Observe(5)
	hb.Observe(5000)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	h := s.Histograms["h"]
	if !reflect.DeepEqual(h.Bounds, []int64{10, 100}) {
		t.Errorf("merge changed the receiver's bounds: %v", h.Bounds)
	}
	if h.Count != 3 || h.Sum != 5010 {
		t.Errorf("count/sum not conserved: count=%d sum=%d, want 3/5010", h.Count, h.Sum)
	}
	if h.Counts[0] != 2 { // both 5s land in <=10
		t.Errorf("overlapping bucket: %v, want Counts[0]=2", h.Counts)
	}
	// The reverse direction adopts the longer shape wholesale (first writer
	// wins on a missing key).
	s2 := b.Snapshot()
	s2.Merge(a.Snapshot())
	if h2 := s2.Histograms["h"]; len(h2.Counts) != 5 || h2.Count != 3 {
		t.Errorf("reverse merge: %+v", h2)
	}
}

// TestHistogramBoundaryValues: values exactly on an ExpBounds boundary land
// in that bound's bucket (upper bounds are inclusive).
func TestHistogramBoundaryValues(t *testing.T) {
	reg := NewRegistry()
	bounds := ExpBounds(2, 16) // 2,4,8,16
	h := reg.Histogram("h", bounds)
	for _, v := range bounds {
		h.Observe(v)
	}
	h.Observe(17) // just past the last bound: overflow
	s := reg.Snapshot().Histograms["h"]
	for i := range bounds {
		if s.Counts[i] != 1 {
			t.Errorf("bucket <=%d: count %d, want 1 (boundary value is inclusive)", bounds[i], s.Counts[i])
		}
	}
	if s.Counts[len(bounds)] != 1 {
		t.Errorf("overflow bucket: %d, want 1", s.Counts[len(bounds)])
	}
}

// TestMergeCounterProperties: snapshot merge on counters is associative and
// commutative — shard merge order can never change a result. Randomized
// property check over small key alphabets to force collisions.
func TestMergeCounterProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := []string{"a", "b", "c", "d"}
	randomSnap := func() *MetricsSnapshot {
		s := (*Registry)(nil).Snapshot()
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				s.Counters[k] = int64(rng.Intn(1000))
			}
		}
		return s
	}
	clone := func(s *MetricsSnapshot) *MetricsSnapshot {
		out := (*Registry)(nil).Snapshot()
		out.Merge(s)
		return out
	}
	for trial := 0; trial < 200; trial++ {
		x, y, z := randomSnap(), randomSnap(), randomSnap()
		// Commutative: x+y == y+x.
		xy, yx := clone(x), clone(y)
		xy.Merge(y)
		yx.Merge(x)
		if !reflect.DeepEqual(xy.Counters, yx.Counters) {
			t.Fatalf("trial %d: merge not commutative: %v vs %v", trial, xy.Counters, yx.Counters)
		}
		// Associative: (x+y)+z == x+(y+z).
		left := clone(x)
		left.Merge(y)
		left.Merge(z)
		yz := clone(y)
		yz.Merge(z)
		right := clone(x)
		right.Merge(yz)
		if !reflect.DeepEqual(left.Counters, right.Counters) {
			t.Fatalf("trial %d: merge not associative: %v vs %v", trial, left.Counters, right.Counters)
		}
	}
}

// TestCanonicalJSONStable: the one encoder — encoding/json, which sorts map
// keys — renders repeated snapshots of a live registry byte-identically,
// decodes to the same snapshot, and omits empty sections.
func TestCanonicalJSONStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Gauge("m.mid").Set(3)
	reg.Vec("v", 2).At(0).Add(4)
	reg.Histogram("h", []int64{8}).Observe(5)
	encode := func() []byte {
		b, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := encode()
	for i := 0; i < 50; i++ {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("rendering %d differs:\n%s\n%s", i, got, first)
		}
	}
	s := reg.Snapshot()
	var decoded MetricsSnapshot
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not decode: %v", err)
	}
	if !reflect.DeepEqual(decoded.Counters, s.Counters) || !reflect.DeepEqual(decoded.Histograms, s.Histograms) {
		t.Errorf("snapshot JSON round-trip drifted: %+v vs %+v", decoded, s)
	}
	// Key order inside a section is sorted.
	if ia, iz := bytes.Index(first, []byte(`"a.first"`)), bytes.Index(first, []byte(`"z.last"`)); ia < 0 || iz < 0 || ia > iz {
		t.Errorf("counters not in sorted order: %s", first)
	}
	// The nil registry's snapshot renders as bare braces (all sections omitted).
	if got, _ := json.Marshal((*Registry)(nil).Snapshot()); string(got) != "{}" {
		t.Errorf("empty snapshot: %s, want {}", got)
	}
	if got := (*Registry)(nil).Snapshot().indentedJSON(); string(got) != "{}\n" {
		t.Errorf("empty snapshot, indented: %q, want {}\\n", got)
	}
	// The indented form is the same encoding re-indented, newline-terminated.
	var compact bytes.Buffer
	if err := json.Compact(&compact, s.indentedJSON()); err != nil || !bytes.Equal(compact.Bytes(), first) {
		t.Errorf("indentedJSON is not the compact encoding re-indented (%v):\n%s\n%s", err, compact.Bytes(), first)
	}
}
