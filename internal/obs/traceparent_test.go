package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceparentMintParseRoundtrip(t *testing.T) {
	tid, sid := NewTraceID(), randHex(SpanIDLen/2)
	if len(tid) != TraceIDLen || len(sid) != SpanIDLen {
		t.Fatalf("id lengths: trace=%d span=%d", len(tid), len(sid))
	}
	h := Traceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("roundtrip %q -> (%q, %q, %v)", h, gotT, gotS, ok)
	}
	if NewTraceID() == tid {
		t.Fatal("two minted trace ids collided")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	// A future version with a trailing field still parses.
	future := "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what"
	if tid, _, ok := ParseTraceparent(future); !ok || tid != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("future-version header rejected: %q", future)
	}
	bad := []string{
		"",
		"00",
		strings.ToUpper(valid), // uppercase hex
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",    // invalid version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",    // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",    // zero span id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x",  // v00 with a tail
		"00-0af7651916cd43dd8448eb211c80319cX-b7ad6b716920333-01",    // shifted dashes
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",    // non-hex
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xyz", // tail without dash
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

func TestSpanParentingInOTLPEncoding(t *testing.T) {
	tr := NewTracer(DriverRank, 16)
	base := time.Unix(100, 0)
	nowNanos := base.UnixNano()
	tr.now = func() int64 { nowNanos += 1e6; return nowNanos }

	root := tr.BeginUnder("serve.job", 0)
	child := tr.BeginUnder("serve.admit", root)
	tr.End(child)
	retro := tr.ObserveUnder("serve.run", base, 0, root)
	if retro == 0 {
		t.Fatal("ObserveUnder returned token 0 on a live tracer")
	}
	tr.End(root)

	id := OTLPIdentity{
		RunID:         "job-1",
		TraceIDHex:    "0af7651916cd43dd8448eb211c80319c",
		ParentSpanHex: "b7ad6b7169203331",
	}
	req := EncodeOTLPSpans(tr.Spans(), id)
	if len(req.ResourceSpans) != 1 {
		t.Fatalf("resourceSpans = %d, want 1", len(req.ResourceSpans))
	}
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	byName := map[string]OTLPSpan{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	job, ok := byName["serve.job"]
	if !ok {
		t.Fatalf("serve.job span missing; got %d spans", len(spans))
	}
	if job.TraceID != id.TraceIDHex {
		t.Errorf("traceId = %q, want the pinned %q", job.TraceID, id.TraceIDHex)
	}
	// Parent==0 spans inherit the identity's enclosing span.
	if job.ParentSpanID != id.ParentSpanHex {
		t.Errorf("root parentSpanId = %q, want %q", job.ParentSpanID, id.ParentSpanHex)
	}
	// Parented spans — live and retroactive — point at the root's span id.
	for _, name := range []string{"serve.admit", "serve.run"} {
		if got := byName[name].ParentSpanID; got != job.SpanID {
			t.Errorf("%s parentSpanId = %q, want root %q", name, got, job.SpanID)
		}
	}
	// Without an override the derived trace id and empty parent are unchanged.
	plain := EncodeOTLPSpans(tr.Spans(), OTLPIdentity{RunID: "job-1"})
	p := plain.ResourceSpans[0].ScopeSpans[0].Spans[0]
	if p.TraceID != (OTLPIdentity{RunID: "job-1"}).TraceID() {
		t.Errorf("derived traceId changed: %q", p.TraceID)
	}
	if p.Name == "serve.job" && p.ParentSpanID != "" {
		t.Errorf("unparented root gained parentSpanId %q", p.ParentSpanID)
	}
}
