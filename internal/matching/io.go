package matching

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteMates writes a matching as text: a "matching <n>" header, then one
// "v mate" pair per matched edge (smaller endpoint first, each edge once),
// rendered by AppendMates into one buffer and handed to w in a single Write.
func WriteMates(w io.Writer, m Mates) error {
	_, err := w.Write(AppendMates(nil, m))
	return err
}

// AppendMates appends WriteMates' text of m to dst, growing it first to the
// bound — at most len(m)/2 pairs of two ids no longer than len(m)'s. Ids are
// rendered by graph.AppendUint32.
func AppendMates(dst []byte, m Mates) []byte {
	idLen := len(graph.AppendUint32(make([]byte, 0, 10), uint32(len(m))))
	dst = slices.Grow(dst, len("matching \n")+idLen+len(m)/2*(2*idLen+2))
	dst = append(dst, "matching "...)
	dst = graph.AppendUint32(dst, uint32(len(m)))
	dst = append(dst, '\n')
	for v, u := range m {
		// graph.None is -1, below every vertex: v < u means matched, and
		// this pair's first sighting.
		if graph.Vertex(v) < u {
			dst = graph.AppendUint32(dst, uint32(v))
			dst = append(dst, ' ')
			dst = graph.AppendUint32(dst, uint32(u))
			dst = append(dst, '\n')
		}
	}
	return dst
}

// ReadMates parses the format written by WriteMates, for a graph of n
// vertices: a header naming any other count is refused before anything is
// allocated, so a file cannot make the reader allocate for vertices the
// graph does not have.
func ReadMates(r io.Reader, n int) (Mates, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows with the longest line, up to 1 MiB
	var m Mates
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "matching" {
			if m != nil {
				return nil, fmt.Errorf("matching: line %d: second header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("matching: line %d: malformed header", lineNo)
			}
			if count, err := strconv.Atoi(fields[1]); err != nil || count != n {
				return nil, fmt.Errorf("matching: line %d: vertex count %q, want %d", lineNo, fields[1], n)
			}
			m = unmatched(n)
			continue
		}
		if m == nil {
			return nil, fmt.Errorf("matching: line %d: pair before header", lineNo)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("matching: line %d: malformed pair", lineNo)
		}
		v, err1 := strconv.ParseInt(fields[0], 10, 32)
		u, err2 := strconv.ParseInt(fields[1], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("matching: line %d: bad pair %q", lineNo, line)
		}
		if v < 0 || int(v) >= len(m) || u < 0 || int(u) >= len(m) || v == u {
			return nil, fmt.Errorf("matching: line %d: pair {%d,%d} out of range", lineNo, v, u)
		}
		if m[v] != graph.None || m[u] != graph.None {
			return nil, fmt.Errorf("matching: line %d: vertex matched twice", lineNo)
		}
		m[v], m[u] = graph.Vertex(u), graph.Vertex(v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("matching: missing header")
	}
	return m, nil
}

// ReadMatesFile reads a matching of a graph of n vertices from path.
func ReadMatesFile(path string, n int) (Mates, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMates(f, n)
}
