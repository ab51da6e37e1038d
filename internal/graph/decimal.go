package graph

import (
	"math/bits"
	"slices"
)

// DigitPairs is "00" through "99": the result writers render two decimal
// digits per table read, not one per division.
const DigitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// pow10 holds 10^0 … 10^9, the first value of each decimal length.
var pow10 = [10]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// AppendUint32 appends v in decimal to dst, the bytes strconv.AppendUint
// writes. The digits go straight into dst's spare capacity, back to front,
// two per step through DigitPairs.
func AppendUint32(dst []byte, v uint32) []byte {
	// floor(log10(v)) from the bit length (1233/4096 ≈ log10 2), one
	// compare to correct it; v|1 gives 0 one digit too.
	n := bits.Len32(v|1) * 1233 >> 12
	if v|1 >= pow10[n] {
		n++
	}
	dst = slices.Grow(dst, n)
	b := dst[len(dst) : len(dst)+n]
	i := n
	for v >= 100 {
		q := v / 100
		j := (v - q*100) * 2
		i -= 2
		b[i], b[i+1] = DigitPairs[j], DigitPairs[j+1]
		v = q
	}
	if v >= 10 {
		b[0], b[1] = DigitPairs[2*v], DigitPairs[2*v+1]
	} else {
		b[0] = byte('0' + v)
	}
	return dst[:len(dst)+n]
}
