package graph

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestAppendUint32MatchesStrconv: every decimal length, both sides of each
// power of ten, and random values render as strconv renders them, after
// whatever dst already held.
func TestAppendUint32MatchesStrconv(t *testing.T) {
	vals := []uint32{math.MaxInt32, math.MaxUint32 - 1, math.MaxUint32}
	for p := uint64(1); p <= 1e9; p *= 10 {
		vals = append(vals, uint32(p-1), uint32(p), uint32(p+1), uint32(2*p-1), uint32(2*p))
	}
	for v := uint32(0); v < 1000; v++ {
		vals = append(vals, v)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 10000 {
		vals = append(vals, rng.Uint32(), rng.Uint32()>>rng.IntN(32))
	}
	for _, v := range vals {
		for _, dst := range [][]byte{nil, []byte("x"), make([]byte, 3, 20)} {
			want := strconv.AppendUint(append([]byte(nil), dst...), uint64(v), 10)
			if got := AppendUint32(dst, v); string(got) != string(want) {
				t.Fatalf("AppendUint32(%q, %d) = %q, want %q", dst, v, got, want)
			}
		}
	}
}
