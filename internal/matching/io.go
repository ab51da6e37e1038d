package matching

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteMates writes a matching as text: a "matching <n>" header, then one
// "v mate" pair per matched edge (smaller endpoint first, each edge once).
// The text is rendered into one buffer — at most len(m)/2 pairs of two ids
// no longer than len(m)'s — and handed to w in a single Write.
func WriteMates(w io.Writer, m Mates) error {
	idLen := len(strconv.Itoa(len(m)))
	buf := make([]byte, 0, len("matching \n")+idLen+len(m)/2*(2*idLen+2))
	buf = append(buf, "matching "...)
	buf = strconv.AppendInt(buf, int64(len(m)), 10)
	buf = append(buf, '\n')
	for v, u := range m {
		if u != graph.None && graph.Vertex(v) < u {
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadMates parses the format written by WriteMates.
func ReadMates(r io.Reader) (Mates, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("matching: line %d: bad vertex count", lineNo)
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

// ReadMatesFile reads a matching from path.
func ReadMatesFile(path string) (Mates, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMates(f)
}
