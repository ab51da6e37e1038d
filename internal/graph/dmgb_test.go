package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dmgbTestGraph builds a small irregular weighted graph.
func dmgbTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := BuildUndirected(9, []Edge{
		{0, 1, 1.5}, {0, 8, 2.25}, {1, 2, 0.5}, {2, 3, 7},
		{3, 4, 1}, {4, 5, 3.5}, {5, 6, 0.125}, {6, 7, 9}, {1, 7, 4},
	}, DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || len(a.Adj) != len(b.Adj) {
		return false
	}
	for i := range a.Xadj {
		if a.Xadj[i] != b.Xadj[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			return false
		}
	}
	if (a.W == nil) != (b.W == nil) {
		return false
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}

func TestDMGBRoundTrip(t *testing.T) {
	weighted := dmgbTestGraph(t)
	unweighted := weighted.Clone()
	unweighted.W = nil
	empty := &Graph{Xadj: []int64{0}}
	isolated := &Graph{Xadj: []int64{0, 0, 0, 0}} // vertices, no edges
	for name, g := range map[string]*Graph{
		"weighted": weighted, "unweighted": unweighted, "empty": empty, "isolated": isolated,
	} {
		enc, err := EncodeDMGB(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := ReadDMGB(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !graphsEqual(g, got) {
			t.Fatalf("%s: round trip changed the graph", name)
		}
		if Fingerprint(g) != Fingerprint(got) {
			t.Fatalf("%s: round trip changed the fingerprint", name)
		}
	}
}

func TestDMGBHeaderCarriesFingerprint(t *testing.T) {
	g := dmgbTestGraph(t)
	enc, err := EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDMGB(enc) {
		t.Fatal("encoded stream does not sniff as DMGB")
	}
	hdr, err := ParseDMGBHeader(enc[:DMGBHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Fingerprint != Fingerprint(g) {
		t.Fatalf("header fingerprint %s != Fingerprint %s", hdr.Fingerprint, Fingerprint(g))
	}
	if hdr.NumVertices != g.NumVertices() || hdr.NumArcs != int64(len(g.Adj)) || !hdr.Weighted {
		t.Fatalf("header %+v does not describe the graph", hdr)
	}
}

// TestDMGBCanonical asserts the encoding is deterministic: equal graphs mean
// equal bytes, which is what lets an upload session dedupe by byte prefix.
func TestDMGBCanonical(t *testing.T) {
	g := dmgbTestGraph(t)
	a, _ := EncodeDMGB(g)
	b, _ := EncodeDMGB(g.Clone())
	if !bytes.Equal(a, b) {
		t.Fatal("encoding of equal graphs differs")
	}
}

// TestFormatsAgreeOnFingerprint is the cross-format equivalence gate: the
// same graph written as text and as DMGB must read back with identical
// fingerprints through the sniffing ReadAuto path.
func TestFormatsAgreeOnFingerprint(t *testing.T) {
	g := dmgbTestGraph(t)
	want := Fingerprint(g)
	writers := map[string]func(io.Writer, *Graph) error{
		"text": WriteText, "dmgb": WriteDMGB,
	}
	for name, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s: ReadAuto: %v", name, err)
		}
		if fp := Fingerprint(got); fp != want {
			t.Fatalf("%s: fingerprint %s, want %s", name, fp, want)
		}
	}
}

func TestReadWriteFileSniffsDMGB(t *testing.T) {
	g := dmgbTestGraph(t)
	dir := t.TempDir()
	for _, name := range []string{"g.dmgb", "g.bin", "g.txt"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if Fingerprint(got) != Fingerprint(g) {
			t.Fatalf("%s: fingerprint changed through WriteFile/ReadFile", name)
		}
	}
	// Content sniffing, not extension: a DMGB stream under a .txt name reads.
	odd := filepath.Join(dir, "disguised.txt")
	enc, _ := EncodeDMGB(g)
	if err := os.WriteFile(odd, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(odd)
	if err != nil {
		t.Fatalf("sniffing a disguised DMGB file: %v", err)
	}
	if Fingerprint(got) != Fingerprint(g) {
		t.Fatal("disguised DMGB file decoded wrong")
	}
}

func TestDMGBRejectsCorruption(t *testing.T) {
	g := dmgbTestGraph(t)
	enc, err := EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadDMGB(bytes.NewReader(enc[:DMGBHeaderSize-10])); err == nil {
			t.Fatal("truncated header decoded")
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := ReadDMGB(bytes.NewReader(enc[:len(enc)-5])); err == nil {
			t.Fatal("truncated body decoded")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] = 'X'
		if _, err := ReadDMGB(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic decoded")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint16(bad[4:6], 99)
		if _, err := ReadDMGB(bytes.NewReader(bad)); err == nil {
			t.Fatal("unknown version decoded")
		}
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[24] ^= 0xff // flip a declared-fingerprint byte
		_, err := ReadDMGB(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Fatalf("lying fingerprint: %v", err)
		}
	})
	t.Run("flipped weight", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0x01 // corrupt the last weight byte
		_, err := ReadDMGB(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Fatalf("corrupt body: %v", err)
		}
	})
	t.Run("implausible arc count", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[16:24], 1<<50)
		if _, err := ReadDMGB(bytes.NewReader(bad)); err == nil {
			t.Fatal("implausible arc count decoded")
		}
	})
}

// dmgbHeader hand-builds a header for adversarial-stream tests; the declared
// fingerprint is zeros, which is fine for rejections that fire before the
// fingerprint check.
func dmgbHeader(n, arcs uint64, flags uint16) []byte {
	hdr := make([]byte, DMGBHeaderSize)
	copy(hdr[0:4], DMGBMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], DMGBVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], flags)
	binary.LittleEndian.PutUint64(hdr[8:16], n)
	binary.LittleEndian.PutUint64(hdr[16:24], arcs)
	return hdr
}

func uvarint(x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return tmp[:binary.PutUvarint(tmp[:], x)]
}

// TestDMGBRejectsAdversarialStreams pins the decoder fixes the fuzzing pass
// demanded: arithmetic on attacker-controlled uvarints must not wrap into
// accepted state, and only the canonical encoding may decode.
func TestDMGBRejectsAdversarialStreams(t *testing.T) {
	t.Run("degree sum overflow", func(t *testing.T) {
		// Two 2^63 degrees wrap int64 addition back to 0 == declared arcs.
		stream := append(dmgbHeader(2, 0, 0), uvarint(1<<63)...)
		stream = append(stream, uvarint(1<<63)...)
		_, err := ReadDMGB(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("wrapped degree sum: %v", err)
		}
	})
	t.Run("negative first neighbor", func(t *testing.T) {
		// A raw first neighbor ≥ 2^63 goes negative under int64 conversion
		// and must be caught by an unsigned bound, not a signed one.
		stream := append(dmgbHeader(2, 1, 0), uvarint(1)...) // degrees 1, 0
		stream = append(stream, uvarint(0)...)
		stream = append(stream, uvarint(1<<63)...) // vertex 0's neighbor
		_, err := ReadDMGB(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("negative neighbor: %v", err)
		}
	})
	t.Run("gap overflow", func(t *testing.T) {
		stream := append(dmgbHeader(3, 2, 0), uvarint(2)...) // degrees 2, 0, 0
		stream = append(stream, uvarint(0)...)
		stream = append(stream, uvarint(0)...)
		stream = append(stream, uvarint(1)...)     // first neighbor 1
		stream = append(stream, uvarint(1<<63)...) // gap wraps prev+gap
		_, err := ReadDMGB(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "overruns") {
			t.Fatalf("wrapped gap: %v", err)
		}
	})
	t.Run("non-minimal uvarint", func(t *testing.T) {
		// Re-encode a valid stream's first degree as a zero-padded two-byte
		// varint: same decoded value, different bytes. The content fingerprint
		// still matches, so only canonical-encoding rejection catches it —
		// without it, encode(decode(x)) would not reproduce x.
		g := dmgbTestGraph(t)
		enc, err := EncodeDMGB(g)
		if err != nil {
			t.Fatal(err)
		}
		d := enc[DMGBHeaderSize]
		if d >= 0x80 {
			t.Fatalf("test wants a single-byte first degree, got %#x", d)
		}
		bad := append([]byte(nil), enc[:DMGBHeaderSize]...)
		bad = append(bad, 0x80|d, 0x00)
		bad = append(bad, enc[DMGBHeaderSize+1:]...)
		_, err = ReadDMGB(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "non-minimal") {
			t.Fatalf("non-minimal varint: %v", err)
		}
	})
	t.Run("oversized uvarint", func(t *testing.T) {
		stream := append(dmgbHeader(1, 0, 0),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // 11th-bit overflow
		_, err := ReadDMGB(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("overlong varint: %v", err)
		}
	})
}

// TestDMGBStreamingDecode feeds the decoder one byte at a time through a
// pipe, the shape of an in-flight chunked upload.
func TestDMGBStreamingDecode(t *testing.T) {
	g := dmgbTestGraph(t)
	enc, err := EncodeDMGB(g)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	type result struct {
		g   *Graph
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, err := ReadDMGB(pr)
		done <- result{got, err}
	}()
	for _, b := range enc {
		if _, err := pw.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !graphsEqual(g, res.g) {
		t.Fatal("streamed decode changed the graph")
	}
}
