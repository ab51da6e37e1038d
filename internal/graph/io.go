package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The text format is a minimal weighted edge-list dialect:
//
//	# comment lines start with '#'
//	g <numVertices> <numEdges>
//	e <u> <v> <weight>
//	...
//
// one "e" line per undirected edge. The one binary format is DMGB (dmgb.go).

// WriteText writes g in the text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "g %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(u, v Vertex, wt float64) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "e %d %d %g\n", u, v, wt)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// maxUnbackedVertices is how many vertices a text header may claim on its
// word alone: 2²⁰ isolated vertices cost 8 MiB of offsets. A larger claim must
// be backed by at least one input byte per vertex — every real text graph has
// far more — so that a 16-byte body cannot ask for 16 GiB.
const maxUnbackedVertices = 1 << 20

// ReadText parses the text edge-list format.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		n      = -1
		m      int64
		edges  []Edge
		lineNo int
		size   int64 // input bytes seen (line terminators counted as one)
	)
	for sc.Scan() {
		lineNo++
		// The line's bytes are split and parsed in place, with no string and
		// no []string per line: strconv keeps no reference to its argument,
		// so a short string(field) lives on the stack.
		line := sc.Bytes()
		size += int64(len(line)) + 1
		var fields [5][]byte // one more than any valid line has
		nf := splitFields(fields[:], line)
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "g":
			if nf != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed header", lineNo)
			}
			var err error
			n, err = strconv.Atoi(string(fields[1]))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative vertex count %d", lineNo, n)
			}
			m, err = strconv.ParseInt(string(fields[2]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			// The header is a claim, not a fact: it sizes the first allocation
			// only as far as capHint lets it.
			edges = make([]Edge, 0, capHint(int(m)))
		case "e":
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: edge before header", lineNo)
			}
			if nf != 3 && nf != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge", lineNo)
			}
			u, err := parseVertex(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			v, err := parseVertex(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			w := 1.0
			if nf == 4 {
				w, err = strconv.ParseFloat(string(fields[3]), 64)
				if err != nil {
					return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
				}
			}
			edges = append(edges, Edge{U: Vertex(u), V: Vertex(v), W: w})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: missing header")
	}
	if int64(len(edges)) != m {
		return nil, fmt.Errorf("graph: header declares %d edges, file has %d", m, len(edges))
	}
	if n > maxUnbackedVertices && int64(n) > size {
		return nil, fmt.Errorf("graph: header declares %d vertices, but the input is only %d bytes", n, size)
	}
	return BuildUndirected(n, edges, DedupeFirst)
}

// parseVertex is strconv.ParseInt(string(b), 10, 32), which it leaves every
// spelling but the usual one to: up to nine digits and nothing else.
func parseVertex(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 9 {
		return strconv.ParseInt(string(b), 10, 32)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 32)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// splitFields cuts line around runs of white space, as strings.Fields
// defines it, into dst, and reports how many fields it stored; it stops when
// dst is full.
func splitFields(dst [][]byte, line []byte) int {
	n, start := 0, -1
	for i := 0; i < len(line) && n < len(dst); {
		c, width := line[i], 1
		space := c == ' ' || c-'\t' < 5 // \t \n \v \f \r
		if c >= utf8.RuneSelf {
			var r rune
			r, width = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst[n] = line[start:i]
			n++
			start = -1
		}
		i += width
	}
	if start >= 0 && n < len(dst) {
		dst[n] = line[start:]
		n++
	}
	return n
}

// ReadAuto reads a graph in either of this repository's formats, sniffing
// the stream by its magic bytes: "DMGB" selects the streaming DMGB codec,
// anything else is parsed as the text edge-list format. Every reader path
// that accepts "a graph file" routes through here — uploads included, so both
// decoders must hold up against hostile bytes.
func ReadAuto(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(8)
	if err != nil && len(prefix) == 0 {
		return nil, fmt.Errorf("graph: empty input: %w", err)
	}
	if IsDMGB(prefix) {
		g, _, err := readDMGB(br)
		return g, err
	}
	return ReadText(br)
}

// WriteFile writes g to path: DMGB if the name ends in ".dmgb" or ".bin",
// text otherwise.
func WriteFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".dmgb") || strings.HasSuffix(path, ".bin") {
		err = WriteDMGB(f, g)
	} else {
		err = WriteText(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a graph file in any supported format, sniffed by content
// (not extension) via ReadAuto.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}
