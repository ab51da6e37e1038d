package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
)

// The DMGB format is the streaming binary graph codec of this repository:
// a fixed self-describing header followed by a varint-delta CSR body. It is
// what the serving layer's chunked upload path speaks (docs/PROTOCOL.md §7)
// and what cmd/dmgm-gen writes with -format dmgb.
//
//	offset  size  field
//	0       4     magic "DMGB"
//	4       2     version (little endian, currently 1)
//	6       2     flags (bit 0: weighted)
//	8       8     vertex count n
//	16      8     stored arc count (len(Adj), twice the edge count)
//	24      32    graph fingerprint (raw SHA-256, see Fingerprint)
//	56      ...   body
//
// The body is three sections, in hashing order so a streaming decoder can
// fingerprint the graph incrementally as bytes arrive:
//
//   - degrees: n uvarints, the per-vertex degrees (the deltas of Xadj);
//   - adjacency: per vertex, the sorted neighbor list gap-encoded — the
//     first neighbor as a raw uvarint, each subsequent as the uvarint gap
//     to its predecessor (gaps are ≥ 1, lists are strictly sorted);
//   - weights (weighted graphs only): len(Adj) little-endian float64 bits.
//
// The embedded fingerprint makes every DMGB stream content-addressed from
// its first 56 bytes: an upload session can recognize a graph the daemon
// already holds and short-circuit the transfer. The decoder recomputes the
// fingerprint from the decoded content and rejects a stream whose header
// lies, so the address is trustworthy end to end.

const (
	// DMGBMagic begins every DMGB stream.
	DMGBMagic = "DMGB"
	// DMGBVersion is the current format version.
	DMGBVersion = 1
	// DMGBHeaderSize is the fixed byte length of the header.
	DMGBHeaderSize = 56

	dmgbFlagWeighted = 1 << 0
	// dmgbMaxArcs bounds the arc count a header may claim, so a corrupted
	// stream cannot force a giant allocation.
	dmgbMaxArcs = int64(1) << 40
)

// DMGBHeader is the decoded fixed header of a DMGB stream.
type DMGBHeader struct {
	Version     int
	Weighted    bool
	NumVertices int
	NumArcs     int64
	// Fingerprint is the hex graph fingerprint the stream declares; the
	// decoder verifies it against the decoded content.
	Fingerprint string
}

// IsDMGB reports whether the prefix of a stream (at least 4 bytes) begins a
// DMGB stream.
func IsDMGB(prefix []byte) bool {
	return len(prefix) >= len(DMGBMagic) && string(prefix[:len(DMGBMagic)]) == DMGBMagic
}

// ParseDMGBHeader decodes the fixed header from the first DMGBHeaderSize
// bytes of a stream — what an upload session uses to learn the declared
// fingerprint before the body has arrived.
func ParseDMGBHeader(b []byte) (*DMGBHeader, error) {
	if len(b) < DMGBHeaderSize {
		return nil, fmt.Errorf("graph: DMGB header needs %d bytes, have %d", DMGBHeaderSize, len(b))
	}
	if !IsDMGB(b) {
		return nil, fmt.Errorf("graph: bad DMGB magic %q", b[:4])
	}
	version := int(binary.LittleEndian.Uint16(b[4:6]))
	if version != DMGBVersion {
		return nil, fmt.Errorf("graph: unsupported DMGB version %d", version)
	}
	flags := binary.LittleEndian.Uint16(b[6:8])
	if flags&^uint16(dmgbFlagWeighted) != 0 {
		return nil, fmt.Errorf("graph: unknown DMGB flags %#x", flags)
	}
	n := binary.LittleEndian.Uint64(b[8:16])
	arcs := binary.LittleEndian.Uint64(b[16:24])
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: DMGB vertex count %d exceeds 32-bit vertex ids", n)
	}
	if int64(arcs) < 0 || int64(arcs) > dmgbMaxArcs {
		return nil, fmt.Errorf("graph: implausible DMGB arc count %d", arcs)
	}
	return &DMGBHeader{
		Version:     version,
		Weighted:    flags&dmgbFlagWeighted != 0,
		NumVertices: int(n),
		NumArcs:     int64(arcs),
		Fingerprint: hex.EncodeToString(b[24:56]),
	}, nil
}

// WriteDMGB encodes g as one DMGB stream. The encoding is canonical: a given
// graph always produces the same bytes, so equal streams mean equal graphs.
func WriteDMGB(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	var hdr [DMGBHeaderSize]byte
	copy(hdr[0:4], DMGBMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], DMGBVersion)
	var flags uint16
	if g.W != nil {
		flags |= dmgbFlagWeighted
	}
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(g.Adj)))
	copy(hdr[24:56], fingerprintSum(g))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		k := binary.PutUvarint(tmp[:], x)
		_, err := bw.Write(tmp[:k])
		return err
	}
	for v := 0; v < n; v++ {
		if err := putUvarint(uint64(g.Xadj[v+1] - g.Xadj[v])); err != nil {
			return err
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(Vertex(v))
		for i, u := range adj {
			gap := uint64(uint32(u))
			if i > 0 {
				gap = uint64(uint32(u - adj[i-1]))
			}
			if err := putUvarint(gap); err != nil {
				return err
			}
		}
	}
	if g.W != nil {
		for _, wt := range g.W {
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(wt))
			if _, err := bw.Write(tmp[:8]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadDMGB decodes one DMGB stream, verifying the declared fingerprint
// against the decoded content. The decode is streaming: it consumes r
// incrementally and never buffers the whole stream.
func ReadDMGB(r io.Reader) (*Graph, error) {
	g, _, err := readDMGB(asByteReader(r))
	return g, err
}

// ReadDMGBWithHeader is ReadDMGB returning the verified header too, whose
// fingerprint the decoder has checked against the content: an upload's
// complete keeps it as the graph's address rather than hashing the graph
// again, and the persistent graph store's re-verifying read checks it
// against the address the file was stored under.
func ReadDMGBWithHeader(r io.Reader) (*Graph, *DMGBHeader, error) {
	return readDMGB(asByteReader(r))
}

// readUvarintCanonical decodes one uvarint, rejecting non-minimal encodings.
// The codec always writes minimal varints; accepting zero-padded forms (for
// example 0x80 0x00 for 0) would let two distinct byte streams decode to the
// same graph and break the canonical-bytes contract the content addresses
// rely on (encode(decode(x)) must reproduce x exactly).
func readUvarintCanonical(br io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			if b == 0 && i > 0 {
				return 0, fmt.Errorf("non-minimal uvarint encoding")
			}
			return x | uint64(b)<<s, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// readDMGB is the decoder body, shared by ReadDMGB and ReadAuto.
func readDMGB(br byteReader) (*Graph, *DMGBHeader, error) {
	var hb [DMGBHeaderSize]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: short DMGB header: %w", err)
	}
	hdr, err := ParseDMGBHeader(hb[:])
	if err != nil {
		return nil, nil, err
	}
	n := hdr.NumVertices
	fh := newFPHasher()
	fh.word(uint64(n))
	fh.word(uint64(n + 1)) // length prefix of Xadj

	// Degrees → Xadj by prefix sum. Capacities grow with the stream, not the
	// header, so a lying header cannot force a giant allocation up front.
	g := &Graph{Xadj: append(make([]int64, 0, capHint(n+1)), 0)}
	fh.word(0) // Xadj[0]
	var total int64
	for v := 0; v < n; v++ {
		deg, err := readUvarintCanonical(br)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: DMGB degree of vertex %d: %w", v, err)
		}
		// Compare before adding: deg is attacker-controlled up to 2^64-1, and
		// total+int64(deg) could wrap past the declared bound. total stays in
		// [0, NumArcs] (≤ 2^40), so the uint64 subtraction cannot underflow.
		if deg > uint64(hdr.NumArcs)-uint64(total) {
			return nil, nil, fmt.Errorf("graph: DMGB degrees exceed the declared %d arcs at vertex %d", hdr.NumArcs, v)
		}
		total += int64(deg)
		g.Xadj = append(g.Xadj, total)
		fh.word(uint64(total))
	}
	if total != hdr.NumArcs {
		return nil, nil, fmt.Errorf("graph: DMGB degrees sum to %d arcs, header declares %d", total, hdr.NumArcs)
	}
	fh.word(uint64(total)) // length prefix of Adj

	g.Adj = make([]Vertex, 0, capHint(int(total)))
	for v := 0; v < n; v++ {
		deg := int(g.Xadj[v+1] - g.Xadj[v])
		prev := int64(-1)
		for i := 0; i < deg; i++ {
			raw, err := readUvarintCanonical(br)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: DMGB adjacency of vertex %d: %w", v, err)
			}
			// Bounds are checked on the raw uvarint, in uint64: converting an
			// adversarial raw ≥ 2^63 to int64 first would go negative and slip
			// past a signed `u >= n` check, planting negative vertex ids.
			var u int64
			if i == 0 {
				if raw >= uint64(n) {
					return nil, nil, fmt.Errorf("graph: DMGB neighbor %d of vertex %d out of range [0,%d)", raw, v, n)
				}
				u = int64(raw)
			} else {
				if raw == 0 {
					return nil, nil, fmt.Errorf("graph: DMGB zero gap in adjacency of vertex %d", v)
				}
				if raw >= uint64(int64(n)-prev) {
					return nil, nil, fmt.Errorf("graph: DMGB neighbor gap %d of vertex %d overruns the %d-vertex range", raw, v, n)
				}
				u = prev + int64(raw)
			}
			prev = u
			g.Adj = append(g.Adj, Vertex(u))
			fh.word(uint64(uint32(u)))
		}
	}

	if !hdr.Weighted {
		fh.word(0)
	} else {
		fh.word(1)
		g.W = make([]float64, 0, capHint(int(total)))
		var wb [8]byte
		for i := int64(0); i < total; i++ {
			if _, err := io.ReadFull(br, wb[:]); err != nil {
				return nil, nil, fmt.Errorf("graph: DMGB weight %d: %w", i, err)
			}
			bits := binary.LittleEndian.Uint64(wb[:])
			g.W = append(g.W, math.Float64frombits(bits))
			fh.word(bits)
		}
	}

	if got := hex.EncodeToString(fh.sum()); got != hdr.Fingerprint {
		return nil, nil, fmt.Errorf("graph: DMGB fingerprint mismatch: header declares %s, content hashes to %s", hdr.Fingerprint, got)
	}
	return g, hdr, nil
}

// capHint bounds an up-front allocation by what a header may honestly claim
// for a small graph; larger streams grow by append as bytes actually arrive.
func capHint(n int) int {
	const max = 1 << 20
	if n > max {
		return max
	}
	if n < 0 {
		return 0
	}
	return n
}

// byteReader is what the varint decoder needs: an io.Reader that can also
// step one byte at a time.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// asByteReader adapts any reader, buffering only when it must.
func asByteReader(r io.Reader) byteReader {
	if br, ok := r.(byteReader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 1<<20)
}

// EncodeDMGB returns the canonical DMGB encoding of g — convenience for
// callers that need the bytes in hand (uploads, tests).
func EncodeDMGB(g *Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteDMGB(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
