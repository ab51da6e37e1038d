package obs

import "testing"

// Benchmarks pin the overhead contract's magnitudes: the disabled (nil)
// instruments should show 0 B/op, and the enabled span path should stay
// allocation-free. CI runs these as a smoke (-benchtime=1x) next to the
// hard zero-alloc assertions in TestDisabledZeroAlloc /
// TestOTLPDisabledZeroAlloc.

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EndN(tr.Begin("phase"), 1)
	}
}

func BenchmarkDisabledExporter(b *testing.B) {
	var exp *OTLPExporter
	spans := []Span{{Seq: 1, Rank: 0, Name: "phase", Start: 1, Dur: 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exp.ExportSpans(spans)
		_ = exp.Dropped()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer(0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EndN(tr.Begin("phase"), 1)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
