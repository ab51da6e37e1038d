package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sync/atomic"
	"time"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/) helpers: the
// serving layer accepts a `traceparent` request header on job submissions so
// a caller's distributed trace continues through the daemon, and mints a
// fresh trace id when none arrives. Only the `00` version's shape is
// produced; any version is accepted on parse (per the spec, unknown versions
// are read as version 00 when the tail fits).

// TraceIDLen and SpanIDLen are the hex lengths of W3C/OTLP ids.
const (
	TraceIDLen = 32
	SpanIDLen  = 16
)

// tpFallback seeds the degraded-entropy path: crypto/rand should never fail,
// but a trace id is not worth failing a request over.
var tpFallback atomic.Uint64

func randHex(nbytes int) string {
	b := make([]byte, nbytes)
	if _, err := rand.Read(b); err != nil {
		// Degraded path: time+pid+counter still gives per-request-unique ids.
		v := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ tpFallback.Add(0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(b[:8], v)
	}
	if allZero(b) {
		b[0] = 1 // the all-zero id is invalid in both W3C and OTLP
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a random 16-byte trace id, lowercase hex.
func NewTraceID() string { return randHex(16) }

// ParseTraceparent reads a traceparent header value and returns the caller's
// trace id and parent span id (both lowercase hex). ok is false on anything
// malformed — the wrong shape, non-hex digits, the forbidden all-zero ids,
// or the invalid version ff — in which case the caller should mint a fresh
// trace rather than propagate garbage.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	// version(2)-traceid(32)-spanid(16)-flags(2), with dashes: 55 chars
	// minimum; a future version may append fields after the flags.
	if len(h) < 55 {
		return "", "", false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver, tid, sid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(ver) || !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(flags) {
		return "", "", false
	}
	if ver == "ff" {
		return "", "", false
	}
	if ver == "00" && len(h) != 55 {
		return "", "", false
	}
	if len(h) > 55 && h[55] != '-' {
		return "", "", false
	}
	if allZeroHex(tid) || allZeroHex(sid) {
		return "", "", false
	}
	return tid, sid, true
}

// Traceparent renders a version-00 traceparent value with the sampled flag
// set — what the serving layer hands a runtime, and what clients send to
// continue a trace.
func Traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
